(* The host:port argument of msmr_replica and msmr_client: a bad one is
   a usage error (exit 124), reported before anything starts. *)

let parse s =
  match String.rindex_opt s ':' with
  | None -> Error (`Msg (Printf.sprintf "bad address %S (want host:port)" s))
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | None -> Error (`Msg (Printf.sprintf "bad port in %S" s))
     | Some port -> (
         match Unix.gethostbyname host with
         | { Unix.h_addr_list = [||]; _ } ->
           Error (`Msg (Printf.sprintf "cannot resolve %S" host))
         | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))
         | exception Not_found ->
           Error (`Msg (Printf.sprintf "cannot resolve %S" host))))

let pp ppf = function
  | Unix.ADDR_INET (a, port) ->
    Format.fprintf ppf "%s:%d" (Unix.string_of_inet_addr a) port
  | Unix.ADDR_UNIX path -> Format.pp_print_string ppf path

let conv = Cmdliner.Arg.conv (parse, pp)
