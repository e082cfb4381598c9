type conflict =
  | Keys of string list
  | Global

type t = {
  execute : Msmr_wire.Client_msg.request -> bytes;
  snapshot : unit -> bytes;
  restore : bytes -> unit;
  conflict_keys : Msmr_wire.Client_msg.request -> conflict;
}

let global_conflicts _req = Global

let make ?(conflict_keys = global_conflicts) ~execute ~snapshot ~restore () =
  { execute; snapshot; restore; conflict_keys }

let null ?(reply_size = 8) () =
  let reply = Bytes.make reply_size '\x00' in
  { execute = (fun _req -> reply);
    snapshot = (fun () -> Bytes.empty);
    restore = (fun _ -> ());
    conflict_keys = global_conflicts }

let accumulator () =
  let sum = ref 0 in
  { execute =
      (fun req ->
         let d =
           match int_of_string_opt (Bytes.to_string req.payload) with
           | Some d -> d
           | None -> 0
         in
         sum := !sum + d;
         Bytes.of_string (string_of_int !sum));
    snapshot = (fun () -> Bytes.of_string (string_of_int !sum));
    restore =
      (fun b ->
         sum := match int_of_string_opt (Bytes.to_string b) with
           | Some v -> v
           | None -> 0);
    conflict_keys = global_conflicts }
