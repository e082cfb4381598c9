/* A timed wait on a Stdlib Condition.t, for Channel.take_timeout: OCaml
   5.1's Condition has no timed wait. Built as the runtime's own
   caml_ml_condition_wait is: unwrap the pthread objects, release the
   runtime lock, wait, take the lock back. The deadline is on
   CLOCK_MONOTONIC, the clock of Mclock.now_ns. */
#define _GNU_SOURCE
#define CAML_INTERNALS
#include <errno.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/sync.h>

/* The runtime keeps no header for this one: a Condition.t is a custom
   block holding a pthread_cond_t pointer, as a Mutex.t holds a
   pthread_mutex_t pointer (Mutex_val, caml/sync.h). */
#define Condition_val(v) (*((pthread_cond_t **)Data_custom_val(v)))

static int has_ops(value v, const char *identifier)
{
  return strcmp(Custom_ops_val(v)->identifier, identifier) == 0;
}

/* Whether [cond] and [mut] are the runtime's own condition and mutex
   blocks, the layout the macros above read. */
value channel_sync_layout_ok(value cond, value mut)
{
  return Val_bool(has_ops(cond, "_condition") && has_ops(mut, "_mutex"));
}

/* Wait on [cond], [mut] held, until signalled or until the monotonic
   instant [deadline_ns] passes. Returns true on timeout. */
value channel_cond_clockwait(value cond, value mut, value deadline_ns)
{
  CAMLparam3(cond, mut, deadline_ns);
  pthread_cond_t *c = Condition_val(cond);
  pthread_mutex_t *m = Mutex_val(mut);
  int64_t ns = Int64_val(deadline_ns);
  struct timespec ts;
  int rc;

  if (ns < 0) ns = 0;
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  caml_enter_blocking_section();
  rc = pthread_cond_clockwait(c, m, CLOCK_MONOTONIC, &ts);
  caml_leave_blocking_section();
  if (rc != 0 && rc != ETIMEDOUT)
    caml_failwith("Channel.take_timeout: pthread_cond_clockwait failed");
  CAMLreturn(Val_bool(rc == ETIMEDOUT));
}
