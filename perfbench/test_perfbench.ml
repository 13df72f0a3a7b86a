(* Tests of the benchmark's own code: the seeded generator, the
   correctness check, and the determinism of traced runs. *)

open Perfbench
module Proto = Repro_chopchop.Proto

let small_inputs w seed = Workload.inputs w Workload.Small ~seed

let test_generator_seeded () =
  List.iter
    (fun w ->
      let name = Workload.to_string w in
      Alcotest.(check bool)
        (name ^ ": same seed, same inputs") true
        (small_inputs w 5 = small_inputs w 5);
      Alcotest.(check bool)
        (name ^ ": other seed, other inputs") false
        (small_inputs w 5 = small_inputs w 6))
    Workload.all

let test_payloads_distinct () =
  let i = small_inputs Workload.Distill_clients 3 in
  Array.iter
    (fun ps ->
      Array.iteri
        (fun k p ->
          if k > 0 then
            Alcotest.(check bool) "consecutive payloads differ" true (p <> ps.(k - 1)))
        ps)
    i.Workload.payloads

let digest_of deliveries =
  let d = Check.digest () in
  List.iter (Check.add d) deliveries;
  d

let ops l = Proto.Ops (Array.of_list l)

let bulk first_id count tag =
  Proto.Bulk { first_id; count; tag; msg_bytes = 8 }

let test_agree () =
  let a = [ ops [ (1, "a"); (2, "b") ]; bulk 0 10 1 ] in
  Alcotest.(check bool) "identical sequences agree" true
    (Check.agree [| digest_of a; digest_of a |]);
  Alcotest.(check bool) "reordered sequence disagrees" false
    (Check.agree [| digest_of a; digest_of [ ops [ (2, "b"); (1, "a") ]; bulk 0 10 1 ] |]);
  Alcotest.(check bool) "other payload disagrees" false
    (Check.agree [| digest_of a; digest_of [ ops [ (1, "a"); (2, "c") ]; bulk 0 10 1 ] |]);
  Alcotest.(check bool) "missing delivery disagrees" false
    (Check.agree [| digest_of a; digest_of [ ops [ (1, "a"); (2, "b") ] ] |])

let test_duplicates () =
  Alcotest.(check int) "distinct" 0
    (Check.duplicates [ ops [ (1, "a"); (1, "b") ]; bulk 0 10 1; bulk 10 10 1; bulk 0 10 2 ]);
  Alcotest.(check int) "repeated pair" 1
    (Check.duplicates [ ops [ (1, "a") ]; ops [ (2, "a"); (1, "a") ] ]);
  Alcotest.(check int) "overlapping ranges of one tag" 5
    (Check.duplicates [ bulk 0 10 1; bulk 5 10 1 ])

let deterministic =
  [ "sim.events"; "net.msgs"; "net.msgs_per_msg"; "crypto.verify_ops_per_msg";
    "outcome.tput_ops"; "outcome.lat_p50_s"; "outcome.lat_p99_s";
    "outcome.decisions"; "server.events"; "broker.events" ]

let test_traced_deterministic () =
  List.iter
    (fun w ->
      let run () =
        let fields = Report.measure ~traced:true w Workload.Small ~seed:9 in
        Alcotest.(check bool)
          (Workload.to_string w ^ " correct") true
          (List.assoc "correct" fields = `B true);
        (* The kernels ran on this workload's shapes, their inputs checked. *)
        Alcotest.(check bool)
          (Workload.to_string w ^ " kernels timed") true
          (match List.assoc "batch.verify_ms" fields with `F t -> t > 0. | _ -> false);
        List.map (fun k -> (k, List.assoc k fields)) deterministic
      in
      let a = run () and b = run () in
      List.iter2
        (fun (k, x) (_, y) ->
          Alcotest.(check string)
            (Workload.to_string w ^ " " ^ k)
            (Report.json_of_fields [ (k, x) ])
            (Report.json_of_fields [ (k, y) ]))
        a b)
    Workload.all

let () =
  Alcotest.run "perfbench"
    [ ( "generator",
        [ Alcotest.test_case "seeded" `Quick test_generator_seeded;
          Alcotest.test_case "distinct payloads" `Quick test_payloads_distinct ] );
      ( "check",
        [ Alcotest.test_case "digests agree" `Quick test_agree;
          Alcotest.test_case "duplicates" `Quick test_duplicates ] );
      ( "traced",
        [ Alcotest.test_case "deterministic counts" `Quick test_traced_deterministic ] ) ]
