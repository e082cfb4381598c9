(* Planted violations: break one gate in a copy of each committed
   BENCH_NNN.json and assert that `main.exe check` exits non-zero and
   names that gate. Runs next to main.exe and the committed files. *)

module J = Msmr_obs.Json

let read file = In_channel.with_open_bin file In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [edit path f j] replaces the value at the dotted [path] (list elements
   by index) with [f v]; [None] drops the key. *)
let rec edit path f j =
  match (path, j) with
  | [], _ -> f j
  | key :: rest, J.Obj kvs ->
    Some
      (J.Obj
         (List.filter_map
            (fun (k, v) ->
               if k = key then Option.map (fun v -> (k, v)) (edit rest f v)
               else Some (k, v))
            kvs))
  | i :: rest, J.List xs ->
    let i = int_of_string i in
    Some
      (J.List
         (List.concat
            (List.mapi
               (fun n v -> if n = i then Option.to_list (edit rest f v) else [ v ])
               xs)))
  | _ -> invalid_arg "edit"

let set v _ = Some v
let drop _ = None

let load id = J.of_string (read (Printf.sprintf "BENCH_%s.json" id))

let planted j path f =
  Option.get (edit (String.split_on_char '.' path) f j)

(* Runs `main.exe check` on [text]; returns its exit code and stdout. *)
let check ?(committed = false) text =
  let file = Filename.temp_file "planted" ".json" in
  let out = Filename.temp_file "planted" ".out" in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  let args = "check" :: (if committed then [ "--committed" ] else []) @ [ file ] in
  let code = Sys.command (Filename.quote_command "./main.exe" ~stdout:out args) in
  let result = (code, read out) in
  Sys.remove file;
  Sys.remove out;
  result

let expect_fail ?committed text line =
  let code, out = check ?committed text in
  Alcotest.(check bool) "check exits non-zero" true (code <> 0);
  if not (contains out line) then Alcotest.failf "expected %S in:\n%s" line out

let breaks id path f gate =
  Alcotest.test_case (Printf.sprintf "BENCH_%s %s" id gate) `Quick (fun () ->
      expect_fail
        (J.to_string (planted (load id) path f))
        (Printf.sprintf "FAIL BENCH_%s %s " id gate))

let gates =
  [ breaks "002" "core_scaling.points.0.throughput_rps" (set (J.Float 0.))
      "positive_throughput";
    breaks "003" "points.2.group_rps" (set (J.Float 1.)) "group_commit_3x";
    breaks "004" "points.0.adaptive_vs_best" (set (J.Float 0.85)) "adaptive_near_best";
    breaks "005" "crash.recovery_s" drop "crash_fields";
    breaks "005" "live.suspects" (set (J.Int 0)) "live_suspects";
    breaks "006" "barrier.globals_executed" (set (J.Int 0)) "globals";
    breaks "007" "sim.steal_speedup_hot" (set (J.Float 1.2)) "steal_speedup";
    (* points.6 is the 50/50, one-group ordered baseline *)
    breaks "008" "points.6.throughput_rps" (set (J.Float 1.)) "golden_pin";
    breaks "009" "points.0.safety_ok" (set (J.Bool false)) "safety";
    breaks "010" "sim.reconfig.safety_ok" (set (J.Bool false)) "sim_ok" ]

let files =
  [ Alcotest.test_case "truncated file" `Quick (fun () ->
        let text = read "BENCH_002.json" in
        expect_fail (String.sub text 0 (String.length text / 2)) "FAIL ");
    Alcotest.test_case "unknown bench id" `Quick (fun () ->
        let j = planted (load "002") "bench" (set (J.String "BENCH_999")) in
        expect_fail (J.to_string j) "unknown bench id");
    Alcotest.test_case "quick file skips full-run gates" `Quick (fun () ->
        let j = planted (load "004") "quick" (set (J.Bool true)) in
        let j = planted j "points.0.adaptive_vs_best" (set (J.Float 0.85)) in
        let code, out = check (J.to_string j) in
        Alcotest.(check int) "check passes" 0 code;
        Alcotest.(check bool) "gate skipped" true
          (contains out "skip BENCH_004 adaptive_near_best ");
        expect_fail ~committed:true (J.to_string j) "FAIL BENCH_004 full_run ") ]

let () = Alcotest.run "bench gates" [ ("planted", gates); ("check", files) ]
