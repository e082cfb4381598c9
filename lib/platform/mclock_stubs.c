/* Monotonic clock for Mclock.now_ns: CLOCK_MONOTONIC never steps
   backwards when the wall clock is adjusted. */
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t mclock_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value mclock_now_ns(value unit)
{
  return caml_copy_int64(mclock_now_ns_unboxed(unit));
}
