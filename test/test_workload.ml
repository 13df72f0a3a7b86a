(* Tests for the workload layer: load brokers reuse the real broker
   pipeline, deliver at their configured rate, cycle ranges without
   duplicate delivery, and report sane latencies. *)

module D = Repro_chopchop.Deployment
module Server = Repro_chopchop.Server
module Proto = Repro_chopchop.Proto
module LB = Repro_workload.Load_broker
module Stats = Repro_sim.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let mk ?(rate = 2.0) ?(ranges = 3) ?(count = 128) ?(distill = 1.0) () =
  let d =
    D.create
      { D.default_config with
        underlay = D.Sequencer; dense_clients = 100_000 }
  in
  let lb =
    LB.create ~deployment:d ~region:Repro_sim.Region.Ovh_gravelines
      ~config:{ rate; batch_count = count; msg_bytes = 8;
                distill_fraction = distill; ranges; first_id = 0 }
      ()
  in
  (d, lb)

let test_load_completes () =
  let d, lb = mk () in
  LB.start lb ~until:10. ();
  D.run d ~until:40.;
  let sub = LB.submitted lb in
  checkb (Printf.sprintf "submitted ~20 (got %d)" sub) true (sub >= 18 && sub <= 21);
  checki "all submitted batches completed" sub (LB.completed lb);
  checki "messages delivered match" (sub * 128) (LB.completed_messages lb);
  checki "servers agree" (sub * 128)
    (Server.delivered_messages (D.servers d).(0))

let test_no_duplicates_across_cycles () =
  (* 3 ranges cycled over ~20 batches: tags rise, so every injection is
     fresh — delivered messages equal injected messages exactly. *)
  let d, lb = mk ~ranges:3 () in
  LB.start lb ~until:10. ();
  D.run d ~until:40.;
  Array.iter
    (fun sv ->
      checki "no duplicate deliveries" (LB.submitted lb * 128)
        (Server.delivered_messages sv))
    (D.servers d)

let test_latency_sane () =
  let d, lb = mk () in
  LB.start lb ~until:8. ();
  D.run d ~until:40.;
  let m = Stats.Summary.mean (LB.latencies lb) in
  checkb (Printf.sprintf "batch pipeline latency in (0.1, 3) s (got %.2f)" m) true
    (m > 0.1 && m < 3.)

let test_partial_distillation () =
  (* distill_fraction 0.5: half the entries ride as stragglers; delivery
     still covers every message exactly once. *)
  let d, lb = mk ~distill:0.5 () in
  LB.start lb ~until:6. ();
  D.run d ~until:40.;
  checki "all messages delivered" (LB.submitted lb * 128)
    (Server.delivered_messages (D.servers d).(0));
  checkb "completed everything" true (LB.completed lb = LB.submitted lb)

let test_zero_distillation () =
  let d, lb = mk ~distill:0.0 () in
  LB.start lb ~until:6. ();
  D.run d ~until:40.;
  checki "classic batches still flow" (LB.submitted lb * 128)
    (Server.delivered_messages (D.servers d).(0))

let test_bulk_regeneration_matches () =
  (* Bulk deliveries must describe exactly the dense batch content:
     first_id/count/tag as forged. *)
  let d, lb = mk ~ranges:1 ~rate:1.0 () in
  let bulks = ref [] in
  D.server_deliver_hook d (fun srv del ->
      if srv = 0 then
        match del with
        | Proto.Bulk { first_id; count; tag; _ } ->
          bulks := (first_id, count, tag) :: !bulks
        | Proto.Ops _ -> ());
  LB.start lb ~until:3.5 ();
  D.run d ~until:30.;
  checki "three rounds of the single range" 3 (List.length !bulks);
  let tags = List.sort compare (List.map (fun (_, _, t) -> t) !bulks) in
  Alcotest.(check (list int)) "tags rise per round" [ 1; 2; 3 ] tags;
  List.iter
    (fun (first_id, count, _) ->
      checki "first id" 0 first_id;
      checki "count" 128 count)
    !bulks

let () =
  Alcotest.run "workload"
    [ ("load-broker",
       [ Alcotest.test_case "completes at rate" `Quick test_load_completes;
         Alcotest.test_case "no duplicates across cycles" `Quick test_no_duplicates_across_cycles;
         Alcotest.test_case "latency sane" `Quick test_latency_sane;
         Alcotest.test_case "partial distillation" `Quick test_partial_distillation;
         Alcotest.test_case "zero distillation" `Quick test_zero_distillation;
         Alcotest.test_case "bulk content matches forge" `Quick test_bulk_regeneration_matches ]) ]
