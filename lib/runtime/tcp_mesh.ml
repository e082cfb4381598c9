module Mclock = Msmr_platform.Mclock

(* The hello is the dialer's node id alone; [expect_end] rejects any
   longer frame, such as the older hello that also carried a group id. *)
let hello_frame me =
  let w = Msmr_wire.Codec.W.create ~initial:4 () in
  Msmr_wire.Codec.W.i32 w me;
  Msmr_wire.Codec.W.contents w

let id_of_hello b =
  let r = Msmr_wire.Codec.R.of_bytes b in
  let id = Msmr_wire.Codec.R.i32 r in
  Msmr_wire.Codec.R.expect_end r;
  id

(* One peer's connection state. [conn] is the current physical
   connection (wrapped as a Transport.Tcp link, whose own error handling
   turns a dead socket into dropped sends / [None] reads); it flips to
   [None] when the reader observes the death, and back to [Some] when
   the dialer or acceptor installs a replacement. *)
type slot = {
  peer : int;
  mu : Mutex.t;
  cv : Condition.t;
  mutable conn : Transport.link option;
  mutable ever_connected : bool;
  mutable closed : bool;          (* facade closed: stop reconnecting *)
}

type t = {
  me : int;
  listener : Unix.file_descr;
  mutable slots : (int * slot) list;  (* every peer <> me *)
  slots_mu : Mutex.t;             (* orders add_peer/remove_peer *)
  closing : bool Atomic.t;
  reconnects : int Atomic.t;
  mutable threads : Thread.t list;
}

let reconnects t = Atomic.get t.reconnects

let install t slot link =
  Mutex.lock slot.mu;
  if slot.closed || Atomic.get t.closing then begin
    Mutex.unlock slot.mu;
    link.Transport.close ()
  end
  else begin
    (match slot.conn with Some old -> old.Transport.close () | None -> ());
    slot.conn <- Some link;
    if slot.ever_connected then Atomic.incr t.reconnects;
    slot.ever_connected <- true;
    Condition.broadcast slot.cv;
    Mutex.unlock slot.mu
  end

(* Called by the reader when [link]'s recv returned [None]: clear the
   slot (if this link is still the installed one) so senders stop using
   it and the dialer knows to redial. *)
let retire slot link =
  Mutex.lock slot.mu;
  (match slot.conn with
   | Some c when c == link ->
     slot.conn <- None;
     Condition.broadcast slot.cv
   | _ -> ());
  Mutex.unlock slot.mu;
  link.Transport.close ()

let facade t slot =
  let current () =
    Mutex.lock slot.mu;
    let c = slot.conn in
    Mutex.unlock slot.mu;
    c
  in
  let send_bytes b =
    (* While disconnected, frames drop silently — exactly how a broken
       TCP link looks to the sender thread; the retransmitter covers the
       gap until the dialer brings the link back. *)
    match current () with
    | Some c -> c.Transport.send_bytes b
    | None -> ()
  in
  let send_many bs =
    match current () with
    | Some c -> c.Transport.send_many bs
    | None -> ()
  in
  let rec recv_bytes () =
    Mutex.lock slot.mu;
    while
      slot.conn = None && not slot.closed && not (Atomic.get t.closing)
    do
      Condition.wait slot.cv slot.mu
    done;
    let c = slot.conn in
    Mutex.unlock slot.mu;
    match c with
    | None -> None                          (* closed for good *)
    | Some c -> (
        match c.Transport.recv_bytes () with
        | Some _ as frame -> frame
        | None ->
          (* Connection died; park until a replacement is installed
             rather than reporting end-of-link — reconnection is this
             module's whole point. *)
          retire slot c;
          recv_bytes ())
  in
  let close () =
    Mutex.lock slot.mu;
    slot.closed <- true;
    let c = slot.conn in
    slot.conn <- None;
    Condition.broadcast slot.cv;
    Mutex.unlock slot.mu;
    match c with Some c -> c.Transport.close () | None -> ()
  in
  { Transport.send_bytes; send_many; recv_bytes; close }

let acceptor_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.closing) do
    match Unix.accept t.listener with
    | fd, _ -> (
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        (* A malformed hello closes that connection, not the acceptor. *)
        match Option.map id_of_hello (Msmr_wire.Frame.read fd) with
        | Some id -> (
            (* [slots] mutates under add_peer/remove_peer mid-run. *)
            Mutex.lock t.slots_mu;
            let slot = List.assoc_opt id t.slots in
            Mutex.unlock t.slots_mu;
            match slot with
            | Some slot -> install t slot (Transport.Tcp.link_of_fd fd)
            | None -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
        | None | (exception _) -> (
            try Unix.close fd with Unix.Unix_error _ -> ()))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception _ -> continue := false      (* listener closed *)
  done

(* Dial [slot.peer] whenever the slot is empty, with capped exponential
   backoff plus jitter so a flapping pair of replicas does not
   synchronise into a reconnect storm. Runs for the mesh's lifetime —
   this is what turns a mid-run link death into a reconnection instead
   of a permanent hole. *)
let dialer_loop t slot addr =
  let base = 0.05 and cap = 1.0 in
  let rng = Random.State.make [| (t.me * 7919) + slot.peer; 0x6d657368 |] in
  let backoff = ref base in
  let finished () = slot.closed || Atomic.get t.closing in
  while not (finished ()) do
    (* Wait until the slot needs a connection. *)
    Mutex.lock slot.mu;
    while slot.conn <> None && not (finished ()) do
      Condition.wait slot.cv slot.mu
    done;
    Mutex.unlock slot.mu;
    if not (finished ()) then begin
      match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> Mclock.sleep_s !backoff
      | fd -> (
          match
            Unix.connect fd addr;
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Msmr_wire.Frame.write fd (hello_frame t.me)
          with
          | () ->
            install t slot (Transport.Tcp.link_of_fd fd);
            backoff := base
          | exception _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Mclock.sleep_s (!backoff +. Random.State.float rng (!backoff /. 2.));
            backoff := Float.min cap (!backoff *. 2.))
    end
  done

let create ?(connect_timeout_s = 30.) ~me ~addrs () =
  let my_addr = List.assoc me addrs in
  let listener =
    Unix.socket (Unix.domain_of_sockaddr my_addr) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener my_addr;
  Unix.listen listener 8;
  let slots =
    List.filter_map
      (fun (id, _) ->
         if id = me then None
         else
           Some
             ( id,
               { peer = id;
                 mu = Mutex.create ();
                 cv = Condition.create ();
                 conn = None;
                 ever_connected = false;
                 closed = false } ))
      addrs
  in
  let t =
    { me;
      listener;
      slots;
      slots_mu = Mutex.create ();
      closing = Atomic.make false;
      reconnects = Atomic.make 0;
      threads = [] }
  in
  let acceptor = Thread.create acceptor_loop t in
  (* Lower-id peers listen; we dial them. Higher-id peers dial us. *)
  let dialers =
    List.filter_map
      (fun (id, addr) ->
         if id < me then
           Some (Thread.create (fun () -> dialer_loop t (List.assoc id slots) addr) ())
         else None)
      addrs
  in
  t.threads <- acceptor :: dialers;
  (* Block until the whole mesh is up once: replicas expect working
     links from the first send. *)
  let deadline =
    Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s connect_timeout_s)
  in
  let all_up () =
    List.for_all
      (fun (_, s) ->
         Mutex.lock s.mu;
         let up = s.conn <> None in
         Mutex.unlock s.mu;
         up)
      slots
  in
  while not (all_up ()) do
    if Int64.compare (Mclock.now_ns ()) deadline > 0 then begin
      Atomic.set t.closing true;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      failwith "Tcp_mesh: cannot complete mesh within connect timeout"
    end;
    Mclock.sleep_s 0.02
  done;
  t

let links t = List.map (fun (id, slot) -> (id, facade t slot)) t.slots

(* Online membership change: splice a peer's slot in (or back in)
   mid-run, and retire a decommissioned one. The universe of node ids is
   fixed; what changes is which ids currently hold a live slot. *)
let add_peer t ~peer ~addr =
  if peer = t.me then invalid_arg "Tcp_mesh.add_peer: peer = me";
  Mutex.lock t.slots_mu;
  let slot, need_dialer =
    match List.assoc_opt peer t.slots with
    | Some slot ->
      (* Re-admission after [remove_peer]: reopen the slot so the
         acceptor can install a fresh connection; the old dialer thread
         exited when the slot closed, so start a new one. *)
      Mutex.lock slot.mu;
      let was_closed = slot.closed in
      slot.closed <- false;
      Condition.broadcast slot.cv;
      Mutex.unlock slot.mu;
      (slot, was_closed)
    | None ->
      let slot =
        { peer;
          mu = Mutex.create ();
          cv = Condition.create ();
          conn = None;
          ever_connected = false;
          closed = false }
      in
      t.slots <- (peer, slot) :: t.slots;
      (slot, true)
  in
  (* Same dial direction rule as the initial mesh: we dial lower ids,
     higher ids dial us. *)
  if need_dialer && peer < t.me then
    t.threads <-
      Thread.create (fun () -> dialer_loop t slot addr) () :: t.threads;
  Mutex.unlock t.slots_mu;
  facade t slot

let remove_peer t ~peer =
  Mutex.lock t.slots_mu;
  (match List.assoc_opt peer t.slots with
   | Some slot ->
     Mutex.lock slot.mu;
     slot.closed <- true;
     let c = slot.conn in
     slot.conn <- None;
     Condition.broadcast slot.cv;
     Mutex.unlock slot.mu;
     (match c with Some c -> c.Transport.close () | None -> ())
   | None -> ());
  Mutex.unlock t.slots_mu

let close t =
  if not (Atomic.exchange t.closing true) then begin
    (* Shutdown wakes a thread parked in [accept] (Linux); close alone
       may not. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    List.iter
      (fun (_, slot) ->
         Mutex.lock slot.mu;
         slot.closed <- true;
         let c = slot.conn in
         slot.conn <- None;
         Condition.broadcast slot.cv;
         Mutex.unlock slot.mu;
         match c with Some c -> c.Transport.close () | None -> ())
      t.slots;
    List.iter Thread.join t.threads
  end
