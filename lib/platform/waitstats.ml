let parks = Atomic.make 0

type counter = { name : string; n : int Atomic.t }

(* Registered names, newest first. Written only by [counter], under
   [mu]; the park path touches just the two atomics. *)
let mu = Mutex.create ()
let named : counter list ref = ref []

let counter name =
  Mutex.lock mu;
  let c =
    match List.find_opt (fun c -> c.name = name) !named with
    | Some c -> c
    | None ->
      let c = { name; n = Atomic.make 0 } in
      named := c :: !named;
      c
  in
  Mutex.unlock mu;
  c

let counters () =
  Mutex.lock mu;
  let cs = !named in
  Mutex.unlock mu;
  cs

let note_park c =
  Atomic.incr parks;
  Atomic.incr c.n

let spin_total () = 0
let park_total () = Atomic.get parks
let name c = c.name
let parks_of c = Atomic.get c.n

let reset () =
  Atomic.set parks 0;
  List.iter (fun c -> Atomic.set c.n 0) (counters ())
