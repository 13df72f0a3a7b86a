module Engine = Repro_sim.Engine
module D = Repro_chopchop.Deployment
module Membership = Repro_chopchop.Membership
module Json = Repro_metrics.Json

type backlog = { b_site : string; b_value : float }

type diagnosis = {
  d_reason : string; (* "stall" | "incomplete" | "invariant" *)
  d_sim_time : float;
  d_progress : int;
  d_expected : int;
  d_last_progress_at : float;
  d_phase : string; (* one-line verdict: where delivery is stuck *)
  d_partition : int list list option;
  d_down_servers : int list;
  d_catching_up : int list;
  d_epoch : int;
  d_active_servers : int;
  d_quorum : int;
  d_backlogs : backlog list; (* deepest first *)
  d_hottest_broker : (int * int) option; (* (broker, clients homed), fleet only *)
}

let probe_backlogs d =
  List.map (fun (site, f) -> { b_site = site; b_value = f d }) D.backlog_sites
  |> List.sort (fun a b -> compare b.b_value a.b_value)

let diagnose d ~progress ~expected ~last_progress_at ~reason =
  let cfg = D.config d in
  let n_servers = cfg.D.n_servers in
  let m = D.membership d in
  let active = Membership.active_count m in
  let quorum = Membership.quorum m in
  let down = ref [] and catching = ref [] in
  for i = D.capacity d - 1 downto 0 do
    if i < n_servers || Membership.is_active m i then begin
      if not (D.server_connected d i) then down := i :: !down;
      if D.server_catching_up d i then catching := i :: !catching
    end
  done;
  let partition = D.partition_groups d in
  let backlogs = probe_backlogs d in
  let up_active =
    let c = ref 0 in
    for i = 0 to D.capacity d - 1 do
      if Membership.is_active m i && D.server_connected d i then incr c
    done;
    !c
  in
  let hottest = D.fleet_hottest d in
  let phase =
    match partition with
    | Some groups ->
      Printf.sprintf "network partitioned (%d explicit group(s)), unhealed"
        (List.length groups)
    | None ->
      if up_active < quorum then
        Printf.sprintf "quorum lost: %d of %d active servers up, need %d"
          up_active active quorum
      else begin
        match backlogs with
        | b :: _ when b.b_value > 0. && b.b_site <> "engine.queue" ->
          (* A fleet makes the backlog nameable: say which partition is
             hot, not just which site is deep. *)
          let fleet_note =
            match hottest with
            | Some (broker, clients)
              when String.length b.b_site >= 6
                   && String.sub b.b_site 0 6 = "broker" ->
              Printf.sprintf "; hottest broker %d (%d clients homed)" broker
                clients
            | _ -> ""
          in
          Printf.sprintf "deepest backlog at %s (%.1f)%s" b.b_site b.b_value
            fleet_note
        | _ -> "idle: no backlog anywhere, load never arrived or already drained"
      end
  in
  { d_reason = reason;
    d_sim_time = Engine.now (D.engine d);
    d_progress = progress;
    d_expected = expected;
    d_last_progress_at = last_progress_at;
    d_phase = phase;
    d_partition = partition;
    d_down_servers = !down;
    d_catching_up = !catching;
    d_epoch = Membership.epoch m;
    d_active_servers = active;
    d_quorum = quorum;
    d_backlogs = backlogs;
    d_hottest_broker = hottest }

(* --- the watchdog --------------------------------------------------------- *)

type t = {
  deployment : D.t;
  progress : unit -> int;
  expected : int;
  stall_after : float;
  on_stall : diagnosis -> unit;
  mutable last_progress : int;
  mutable last_change : float;
  mutable fired : diagnosis option;
}

let default_period = 5.0 (* sim seconds between watchdog ticks *)
let default_stall_after = 25.0 (* sim seconds without progress = stall *)

let check w =
  let p = w.progress () in
  let now = Engine.now (D.engine w.deployment) in
  if p <> w.last_progress then begin
    w.last_progress <- p;
    w.last_change <- now
  end
  else if
    p < w.expected
    && now -. w.last_change >= w.stall_after
    && w.fired = None
  then begin
    let di =
      diagnose w.deployment ~progress:p ~expected:w.expected
        ~last_progress_at:w.last_change ~reason:"stall"
    in
    w.fired <- Some di;
    w.on_stall di
  end

let watch ?(period = default_period) ?(stall_after = default_stall_after)
    ?until ?(on_stall = fun _ -> ()) d ~progress ~expected () =
  let engine = D.engine d in
  let w =
    { deployment = d; progress; expected; stall_after; on_stall;
      last_progress = progress ();
      last_change = Engine.now engine;
      fired = None }
  in
  (* The watchdog's ticks are engine events: they shift event sequence
     numbers but schedule nothing protocol-visible and never touch the
     RNG, so deliveries and verdicts are unchanged.  (The *profiler* adds
     no events at all; only the doctor has this footprint.) *)
  let kind = Engine.kind engine "doctor.watch" in
  (* ~inclusive:false: a check firing exactly at [until] would diagnose
     the torn-down world (watched component already stopped) as a stall. *)
  Engine.every ~kind ~inclusive:false engine ~period ?until (fun () -> check w);
  w

let stalled w = w.fired

let last_progress_at w = w.last_change

(* --- rendering ------------------------------------------------------------ *)

let groups_to_string groups =
  String.concat " | "
    (List.map
       (fun g -> String.concat "," (List.map string_of_int g))
       groups)

let pp ppf d =
  let pf fmt = Format.fprintf ppf fmt in
  pf "## Doctor diagnosis (%s)@.@." d.d_reason;
  pf "- sim time: %.2f s; progress %d/%d (last advanced at %.2f s)@."
    d.d_sim_time d.d_progress d.d_expected d.d_last_progress_at;
  pf "- stalled phase: %s@." d.d_phase;
  (match d.d_partition with
   | Some groups -> pf "- partition: groups [%s]@." (groups_to_string groups)
   | None -> pf "- partition: none@.");
  pf "- membership: epoch %d, %d active servers, quorum %d@." d.d_epoch
    d.d_active_servers d.d_quorum;
  (match d.d_down_servers with
   | [] -> ()
   | l ->
     pf "- down servers: %s@."
       (String.concat "," (List.map string_of_int l)));
  (match d.d_catching_up with
   | [] -> ()
   | l ->
     pf "- catching up: %s@." (String.concat "," (List.map string_of_int l)));
  (match d.d_hottest_broker with
   | Some (broker, clients) ->
     pf "- fleet: hottest broker %d with %d clients homed@." broker clients
   | None -> ());
  pf "- backlogs (deepest first):@.";
  List.iter
    (fun b ->
      if b.b_value > 0. then pf "    %-26s %.2f@." b.b_site b.b_value)
    d.d_backlogs;
  if List.for_all (fun b -> b.b_value <= 0.) d.d_backlogs then
    pf "    (all empty)@."

let to_json d =
  Json.Obj
    [ ("reason", Json.Str d.d_reason);
      ("sim_time_s", Json.Num d.d_sim_time);
      ("progress", Json.Num (float_of_int d.d_progress));
      ("expected", Json.Num (float_of_int d.d_expected));
      ("last_progress_at_s", Json.Num d.d_last_progress_at);
      ("phase", Json.Str d.d_phase);
      ( "partition",
        match d.d_partition with
        | None -> Json.Null
        | Some groups ->
          Json.List
            (List.map
               (fun g ->
                 Json.List (List.map (fun n -> Json.Num (float_of_int n)) g))
               groups) );
      ( "down_servers",
        Json.List
          (List.map (fun n -> Json.Num (float_of_int n)) d.d_down_servers) );
      ( "catching_up",
        Json.List
          (List.map (fun n -> Json.Num (float_of_int n)) d.d_catching_up) );
      ("epoch", Json.Num (float_of_int d.d_epoch));
      ("active_servers", Json.Num (float_of_int d.d_active_servers));
      ("quorum", Json.Num (float_of_int d.d_quorum));
      ( "backlogs",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [ ("site", Json.Str b.b_site); ("value", Json.Num b.b_value) ])
             d.d_backlogs) );
      ( "hottest_broker",
        match d.d_hottest_broker with
        | None -> Json.Null
        | Some (broker, clients) ->
          Json.Obj
            [ ("broker", Json.Num (float_of_int broker));
              ("clients", Json.Num (float_of_int clients)) ] ) ]
