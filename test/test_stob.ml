(* Tests for the STOB substrate: the Sequencer oracle, the PBFT-style
   protocol and chained HotStuff all satisfy the STOB properties
   (agreement, total order, no duplication, validity) in benign runs and
   under crash faults, including leader crashes and view changes. *)

open Repro_sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Build an n-server cluster of the given protocol over the geo network;
   returns per-server delivery logs and handles.  The network hands every
   message over [copies] times. *)
let cluster (type m) ?(copies = 1) ~n ~seed
    ~(create :
       engine:Engine.t ->
       self:int ->
       n:int ->
       send:(dst:int -> bytes:int -> m -> unit) ->
       deliver:(string -> unit) ->
       payload_bytes:(string -> int) ->
       unit ->
       (string -> unit) * (src:int -> m -> unit) * (unit -> unit)) () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine () in
  let regions = Array.of_list (Region.server_regions_for n) in
  let delivered = Array.make n [] in
  let handles = Array.make n None in
  for i = 0 to n - 1 do
    Net.add_node net ~id:i ~region:regions.(i)
      ~handler:(fun ~src m ->
        match handles.(i) with
        | Some (_, recv, _) -> recv ~src m
        | None -> ())
      ()
  done;
  for i = 0 to n - 1 do
    let send ~dst ~bytes m =
      for _ = 1 to copies do Net.send net ~src:i ~dst ~bytes m done
    in
    let deliver p = delivered.(i) <- p :: delivered.(i) in
    handles.(i) <- Some (create ~engine ~self:i ~n ~send ~deliver ~payload_bytes:String.length ())
  done;
  let get i = match handles.(i) with Some h -> h | None -> assert false in
  (engine, delivered, get)

let pbft_create ~engine ~self ~n ~send ~deliver ~payload_bytes () =
  let t = Repro_stob.Pbft.create ~engine ~self ~n ~send ~deliver ~payload_bytes () in
  (Repro_stob.Pbft.broadcast t, (fun ~src m -> Repro_stob.Pbft.receive t ~src m),
   fun () -> Repro_stob.Pbft.crash t)

let hs_create ~engine ~self ~n ~send ~deliver ~payload_bytes () =
  let t = Repro_stob.Hotstuff.create ~engine ~self ~n ~send ~deliver ~payload_bytes () in
  (Repro_stob.Hotstuff.broadcast t, (fun ~src m -> Repro_stob.Hotstuff.receive t ~src m),
   fun () -> Repro_stob.Hotstuff.crash t)

let seq_create ~engine ~self ~n ~send ~deliver ~payload_bytes () =
  let t = Repro_stob.Sequencer.create ~engine ~self ~n ~send ~deliver ~payload_bytes () in
  (Repro_stob.Sequencer.broadcast t, (fun ~src m -> Repro_stob.Sequencer.receive t ~src m),
   fun () -> Repro_stob.Sequencer.crash t)

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go xs ys
  in
  if List.length a <= List.length b then go a b else go b a

let no_dup l = List.length (List.sort_uniq compare l) = List.length l

(* Generic scenario: [payloads] broadcast from rotating servers starting
   at t=0.1s, optional crash set at [crash_at]. *)
let scenario ~create ~n ~seed ?copies ?(crash = []) ?(crash_at = 1.0) ~payloads
    ~horizon () =
  let engine, delivered, get = cluster ?copies ~n ~seed ~create () in
  List.iteri
    (fun k p ->
      Engine.schedule engine ~delay:(0.1 +. (0.02 *. float_of_int k)) (fun () ->
          let b, _, _ = get (k mod n) in
          b p))
    payloads;
  List.iter
    (fun i ->
      Engine.schedule engine ~delay:crash_at (fun () ->
          let _, _, c = get i in
          c ()))
    crash;
  Engine.run ~until:horizon engine;
  let correct = List.filter (fun i -> not (List.mem i crash)) (List.init n Fun.id) in
  (List.map (fun i -> List.rev delivered.(i)) correct, correct)

let payloads k = List.init k (fun i -> "p" ^ string_of_int i)

let check_properties ?(expect_all = true) (logs, _) total =
  (match logs with
   | first :: rest ->
     List.iter (fun l -> checkb "agreement (prefix)" true (is_prefix first l)) rest;
     List.iter (fun l -> checkb "no duplication" true (no_dup l)) logs;
     if expect_all then
       List.iter (fun l -> checki "validity: all delivered" total (List.length l)) logs
   | [] -> Alcotest.fail "no correct servers")

let test_benign create () =
  let r = scenario ~create ~n:4 ~seed:1L ~payloads:(payloads 30) ~horizon:60. () in
  check_properties r 30

let test_crash_follower create () =
  let r =
    scenario ~create ~n:4 ~seed:2L ~crash:[ 2 ] ~crash_at:0.3 ~payloads:(payloads 30)
      ~horizon:90. ()
  in
  (* Payloads broadcast by the crashed server before it received them may
     be lost (it crashed); everything submitted by correct servers must
     survive.  Payload k is submitted by server (k mod 4): server 2's are
     exempt if it crashed before submitting. *)
  let logs, _ = r in
  (match logs with
   | first :: rest ->
     List.iter (fun l -> checkb "agreement" true (is_prefix first l)) rest;
     List.iter (fun l -> checkb "no dup" true (no_dup l)) logs;
     let from_correct =
       List.filter (fun p -> int_of_string (String.sub p 1 (String.length p - 1)) mod 4 <> 2)
         (payloads 30)
     in
     List.iter
       (fun p -> checkb ("delivered " ^ p) true (List.mem p first))
       from_correct
   | [] -> Alcotest.fail "no logs")

let test_crash_leader create () =
  (* Server 0 leads view 0 in both protocols' first views. *)
  let r =
    scenario ~create ~n:4 ~seed:3L ~crash:[ 0 ] ~crash_at:0.5 ~payloads:(payloads 20)
      ~horizon:120. ()
  in
  let logs, _ = r in
  (match logs with
   | first :: rest ->
     List.iter (fun l -> checkb "agreement" true (is_prefix first l)) rest;
     List.iter (fun l -> checkb "no dup" true (no_dup l)) logs;
     let from_correct =
       List.filter (fun p -> int_of_string (String.sub p 1 (String.length p - 1)) mod 4 <> 0)
         (payloads 20)
     in
     List.iter (fun p -> checkb ("delivered " ^ p) true (List.mem p first)) from_correct
   | [] -> Alcotest.fail "no logs")

let test_crash_f create () =
  (* n = 7, f = 2: crash two servers, all correct-submitted payloads land. *)
  let r =
    scenario ~create ~n:7 ~seed:4L ~crash:[ 5; 6 ] ~crash_at:0.4 ~payloads:(payloads 28)
      ~horizon:120. ()
  in
  let logs, _ = r in
  match logs with
  | first :: rest ->
    List.iter (fun l -> checkb "agreement" true (is_prefix first l)) rest;
    let from_correct =
      List.filter
        (fun p ->
          let k = int_of_string (String.sub p 1 (String.length p - 1)) in
          k mod 7 < 5)
        (payloads 28)
    in
    List.iter (fun p -> checkb ("delivered " ^ p) true (List.mem p first)) from_correct
  | [] -> Alcotest.fail "no logs"

let test_seven_servers create () =
  let r = scenario ~create ~n:7 ~seed:5L ~payloads:(payloads 40) ~horizon:90. () in
  check_properties r 40

(* Every message arrives three times.  A vote counted once per arrival
   would let two live replicas of four reach a quorum of three alone, so
   with f+1 crashed nothing may deliver; with everyone live, the repeats
   must not break agreement or duplicate a delivery. *)
let test_duplicated_votes create () =
  let logs, _ =
    scenario ~create ~n:4 ~seed:8L ~copies:3 ~crash:[ 2; 3 ] ~crash_at:0.05
      ~payloads:(payloads 12) ~horizon:60. ()
  in
  List.iter (fun l -> checki "no quorum from repeated votes" 0 (List.length l)) logs;
  let r = scenario ~create ~n:4 ~seed:8L ~copies:3 ~payloads:(payloads 12) ~horizon:60. () in
  check_properties r 12

let qcheck_random_schedule create name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name
       QCheck.(pair (int_bound 1000) (int_range 5 40))
       (fun (seed, k) ->
         let r =
           scenario ~create ~n:4 ~seed:(Int64.of_int (seed + 1)) ~payloads:(payloads k)
             ~horizon:120. ()
         in
         let logs, _ = r in
         match logs with
         | first :: rest ->
           List.for_all (fun l -> is_prefix first l) rest
           && List.for_all no_dup logs
           && List.for_all (fun l -> List.length l = k) logs
         | [] -> false))

let proto_suite ?(leader_crash = true) name create =
  ( name,
    [ Alcotest.test_case "benign: agreement+nodup+validity" `Quick (test_benign create);
      Alcotest.test_case "crash follower" `Quick (test_crash_follower create) ]
    @ (if leader_crash then
         (* The Sequencer oracle is not fault-tolerant to node 0 by design. *)
         [ Alcotest.test_case "crash leader (view change)" `Quick (test_crash_leader create);
           Alcotest.test_case "crash f of 7" `Quick (test_crash_f create);
           Alcotest.test_case "votes delivered three times" `Quick
             (test_duplicated_votes create) ]
       else [])
    @ [ Alcotest.test_case "seven servers" `Quick (test_seven_servers create);
        qcheck_random_schedule create (name ^ ": random schedules hold properties") ] )

let test_pbft_sequential_mode () =
  (* max_outstanding = 1 (BFT-SMaRt mode) still delivers everything, just
     more slowly. *)
  let create ~engine ~self ~n ~send ~deliver ~payload_bytes () =
    let t =
      Repro_stob.Pbft.create ~engine ~self ~n ~send ~deliver ~payload_bytes
        ~max_outstanding:1 ~batch_max:4 ()
    in
    (Repro_stob.Pbft.broadcast t, (fun ~src m -> Repro_stob.Pbft.receive t ~src m),
     fun () -> Repro_stob.Pbft.crash t)
  in
  let r = scenario ~create ~n:4 ~seed:6L ~payloads:(payloads 25) ~horizon:120. () in
  check_properties r 25

let () =
  Alcotest.run "stob"
    [ proto_suite ~leader_crash:false "sequencer" seq_create;
      proto_suite "pbft" pbft_create;
      proto_suite "hotstuff" hs_create;
      ("pbft-modes",
       [ Alcotest.test_case "sequential instances" `Quick test_pbft_sequential_mode ]) ]
