let modules =
  [ "ClientIO"; "ReplicationCore"; "ReplicaIO"; "ServiceManager"; "Other" ]

let strip_prefix name =
  match String.index_opt name '/' with
  | Some i when i < String.length name - 1 ->
    String.sub name (i + 1) (String.length name - i - 1)
  | Some _ | None -> name

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let module_of_thread name =
  let name = strip_prefix name in
  if has_prefix ~prefix:"ClientIO" name
     || has_prefix ~prefix:"ClientAcceptor" name
     || has_prefix ~prefix:"conn-" name
  then "ClientIO"
  else if has_prefix ~prefix:"ReplicaIO" name then "ReplicaIO"
  else if has_prefix ~prefix:"Batcher" name
          || has_prefix ~prefix:"Protocol" name
          || has_prefix ~prefix:"FailureDetector" name
          || name = "StableStorage"
  then "ReplicationCore"
  else if has_prefix ~prefix:"Replica" name
          || has_prefix ~prefix:"Executor" name
  then "ServiceManager"
  else "Other"
