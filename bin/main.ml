(* chopchop — experiment CLI.

   `chopchop list` shows every experiment id; `chopchop run fig7 --scale
   quick` regenerates one figure; `chopchop all --scale full` regenerates
   the entire evaluation (EXPERIMENTS.md records a captured run);
   `chopchop trace -o t.json` runs a traced deployment and dumps a
   Chrome-loadable trace plus the per-phase latency breakdown. *)

open Cmdliner
module F = Repro_experiments.Figures
module R = Repro_experiments.Chopchop_run
module LB = Repro_experiments.Latency_breakdown
module CP = Repro_experiments.Causal_path
module M = Repro_metrics.Metrics

(* Satellite: truncated traces must not silently skew what we export. *)
let warn_drops sink =
  let d = Repro_trace.Trace.Sink.dropped sink in
  if d > 0 then
    Format.eprintf
      "warning: trace sink dropped %d events (ring full) — histograms and \
       causal paths may be incomplete@."
      d

let experiments : (string * string * (Format.formatter -> F.scale -> unit)) list =
  [ ("fig1", "context: Internet-scale service rates", F.fig1);
    ("fig3", "batch layout arithmetic (Figs. 2-3)", F.fig3);
    ("micro", "§3.2 distillation microbenchmark", F.micro);
    ("silk", "§6.2 silk vs scp deployment", F.silk_table);
    ("fig7", "throughput-latency, all systems", F.fig7);
    ("fig8a", "distillation benefit", F.fig8a);
    ("fig8b", "message sizes 8-512 B", F.fig8b);
    ("fig9", "line rate (input/network/output)", F.fig9);
    ("fig10a", "number of servers", F.fig10a);
    ("fig10b", "matched total resources", F.fig10b);
    ("fig11a", "server crash failures", F.fig11a);
    ("fig11b", "application use cases", F.fig11b);
    ("ablation-timeout", "reduce-timeout sweep", F.ablation_timeout);
    ("ablation-margin", "witness-margin sweep", F.ablation_margin);
    ("ablation-loss", "client/broker packet-loss sweep", F.ablation_loss);
    ("broker-cores", "broker worker lanes until the NIC binds",
     Repro_experiments.Broker_saturation.print_cores);
    ("broker-scaleout", "fleet size until the network is the limit",
     Repro_experiments.Broker_saturation.print_scaleout);
    ("reconfig-load", "ordered join + leave under sustained load",
     Repro_experiments.Reconfig_load.print);
    ("future", "§8 extensions: sharding + pk-aggregation offload",
     fun fmt scale -> Repro_experiments.Future.print fmt scale) ]

let scale_arg =
  let parse = function
    | "quick" -> Ok F.Quick
    | "full" -> Ok F.Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|full)" s))
  in
  let print fmt s =
    Format.pp_print_string fmt (match s with F.Quick -> "quick" | F.Full -> "full")
  in
  Arg.conv (parse, print)

let scale_term =
  Arg.(
    value
    & opt scale_arg F.Quick
    & info [ "s"; "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: $(b,quick) (16 servers, short windows) or \
              $(b,full) (the paper's 64-server setup).")

let run_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see $(b,chopchop list)).")
  in
  let run id scale =
    match List.find_opt (fun (name, _, _) -> name = id) experiments with
    | Some (_, _, f) ->
      f Format.std_formatter scale;
      Ok ()
    | None ->
      Error
        (Printf.sprintf "unknown experiment %S; available: %s" id
           (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
  in
  let term =
    Term.(
      const (fun id scale ->
          match run id scale with
          | Ok () -> `Ok ()
          | Error e -> `Error (false, e))
      $ id_arg $ scale_term)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment") (Term.ret term)

let all_cmd =
  let run scale =
    F.run_all Format.std_formatter scale;
    Repro_experiments.Future.print Format.std_formatter scale
  in
  let term = Term.(const run $ scale_term) in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure") term

let trace_params = function
  | F.Quick ->
    { R.default with
      n_servers = 4; underlay = Repro_chopchop.Deployment.Pbft;
      rate = 100_000.; batch_count = 4096; n_load_brokers = 1;
      measure_clients = 4; duration = 10.; warmup = 4.; cooldown = 2.;
      dense_clients = 1_000_000 }
  | F.Full ->
    { R.default with
      n_servers = 16; rate = 1_000_000.; batch_count = 16_384;
      duration = 12.; warmup = 4.; cooldown = 3.;
      dense_clients = 10_000_000 }

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "chopchop-trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace_event JSON here (load it in \
                chrome://tracing or ui.perfetto.dev).")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"ID"
          ~doc:"Follow one message: print its causal hop tree \
                (client → broker reduction → witness → order → deliver) \
                with per-hop latencies.  $(docv) is a correlation key \
                from the candidate list, or $(b,auto) for the first \
                fully-reconstructable one.")
  in
  let run scale out follow =
    let result, breakdown, sink = LB.capture ~params:(trace_params scale) () in
    warn_drops sink;
    let idx = CP.index (Repro_trace.Trace.Sink.events sink) in
    match follow with
    | Some spec ->
      let path =
        if spec = "auto" then CP.first idx
        else
          match int_of_string_opt spec with
          | Some key -> CP.follow idx ~key
          | None -> None
      in
      (match path with
       | Some p ->
         Format.printf "%a" CP.pp p;
         `Ok ()
       | None ->
         `Error
           ( false,
             Printf.sprintf
               "cannot follow %S: not a delivered message key (try \
                `chopchop trace` to list candidates, or --follow auto)"
               spec ))
    | None ->
      Format.printf "%a@.@." R.pp_result result;
      Format.printf "%a@." LB.pp breakdown;
      (match Repro_trace.Chrome.to_file sink out with
       | () ->
         Format.printf "trace: %d events (%d dropped) -> %s@."
           (Repro_trace.Trace.Sink.length sink)
           (Repro_trace.Trace.Sink.dropped sink)
           out;
         let cands = CP.candidates idx in
         let show = List.filteri (fun i _ -> i < 8) cands in
         if show <> [] then
           Format.printf "follow a message with --follow <id>: %s%s@."
             (String.concat ", " (List.map (Printf.sprintf "%#x") show))
             (if List.length cands > List.length show then ", ..." else "");
         `Ok ()
       | exception Sys_error e -> `Error (false, e))
  in
  let term = Term.(ret (const run $ scale_term $ out_arg $ follow_arg)) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced deployment: Chrome trace + latency breakdown + \
             causal message paths")
    term

let metrics_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the snapshot and all time series as JSONL here.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the aligned time series as CSV here.")
  in
  let period_arg =
    Arg.(
      value
      & opt float 0.5
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Sampling period (sim time).")
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let run scale out csv period =
    let m = M.create ~period () in
    let sink = Repro_trace.Trace.Sink.memory () in
    let params = { (trace_params scale) with R.trace = sink; metrics = Some m } in
    let result = R.run params in
    warn_drops sink;
    Format.printf "%a@.@." R.pp_result result;
    Format.printf "metrics (%d samples @@ %gs)@." (M.ticks m) period;
    Format.printf "%a" M.pp_table m;
    (try
       Option.iter (fun path ->
           write_file path (M.to_jsonl m);
           Format.printf "metrics jsonl -> %s@." path)
         out;
       Option.iter (fun path ->
           write_file path (M.series_csv m);
           Format.printf "series csv -> %s@." path)
         csv;
       `Ok ()
     with Sys_error e -> `Error (false, e))
  in
  let term = Term.(ret (const run $ scale_term $ out_arg $ csv_arg $ period_arg)) in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a metrics-instrumented deployment: end-of-run table, \
             JSONL/CSV export")
    term

let chaos_cmd =
  let module C = Repro_chaos.Chaos in
  let scenario_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario name, or $(b,all) (see $(b,--list)).")
  in
  let chaos_scale_arg =
    let parse s =
      match C.scale_of_string s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|full)" s))
    in
    let print fmt s = Format.pp_print_string fmt (C.scale_to_string s) in
    Arg.(
      value
      & opt (conv (parse, print)) C.Quick
      & info [ "s"; "scale" ] ~docv:"SCALE"
          ~doc:"Scenario scale: $(b,quick) (4 servers) or $(b,full) (7).")
  in
  let seed_arg =
    Arg.(
      value
      & opt int64 42L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Simulation seed; identical seeds give bit-identical \
                verdicts and traces.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenario names and exit.")
  in
  let run scenario scale seed list =
    if list then begin
      List.iter
        (fun s -> Printf.printf "  %-20s %s\n" s.C.sc_name s.C.sc_summary)
        C.scenarios;
      `Ok ()
    end
    else
      let verdicts =
        if scenario = "all" then Some (C.run_all ~seed ~scale)
        else
          match C.find scenario with
          | Some s -> Some [ s.C.sc_run ~seed ~scale () ]
          | None -> None
      in
      match verdicts with
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown scenario %S; available: %s, all" scenario
              (String.concat ", "
                 (List.map (fun s -> s.C.sc_name) C.scenarios)) )
      | Some vs ->
        List.iter (fun v -> Format.printf "%a@." C.pp_verdict v) vs;
        let failed = List.filter (fun v -> not v.C.v_pass) vs in
        if failed = [] then begin
          Format.printf "chaos: %d/%d scenarios passed@." (List.length vs)
            (List.length vs);
          `Ok ()
        end
        else
          `Error
            ( false,
              Printf.sprintf "chaos: %d scenario(s) FAILED: %s"
                (List.length failed)
                (String.concat ", "
                   (List.map (fun v -> v.C.v_name) failed)) )
  in
  let term =
    Term.(ret (const run $ scenario_arg $ chaos_scale_arg $ seed_arg $ list_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run fault-injection scenarios with invariant checking")
    term

let store_cmd =
  let module D = Repro_chopchop.Deployment in
  let module Server = Repro_chopchop.Server in
  let module Client = Repro_chopchop.Client in
  let module Engine = Repro_sim.Engine in
  let module Payments = Repro_apps.Payments in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")
  in
  let servers_arg =
    Arg.(
      value & opt int 4
      & info [ "servers" ] ~docv:"N" ~doc:"Number of servers.")
  in
  let ckpt_arg =
    Arg.(
      value & opt int 4
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Take a checkpoint every $(docv) delivered batches.")
  in
  let crash_arg =
    Arg.(
      value & opt float 15.
      & info [ "crash" ] ~docv:"T"
          ~doc:"Crash the last server at $(docv) simulated seconds.")
  in
  let restart_arg =
    Arg.(
      value & opt float 35.
      & info [ "restart" ] ~docv:"T"
          ~doc:"Cold-restart it from disk at $(docv) simulated seconds.")
  in
  let run seed n_servers checkpoint_every t_crash t_restart =
    let duration = Float.max 90. (t_restart +. 30.) in
    let cfg =
      { D.default_config with
        n_servers; n_brokers = 2; underlay = D.Sequencer; seed;
        store_enabled = true; checkpoint_every }
    in
    let d = D.create cfg in
    let apps = Array.init n_servers (fun _ -> Payments.create ()) in
    D.server_deliver_hook d (fun server dl ->
        ignore (Payments.apply_delivery apps.(server) dl));
    Array.iteri
      (fun i app ->
        D.set_server_app d i
          ~snapshot:(fun () -> Payments.snapshot app)
          ~restore:(fun s -> Payments.restore app s))
      apps;
    let clients = Array.init 8 (fun _ -> D.add_client d ()) in
    Array.iter Client.signup clients;
    let engine = D.engine d in
    Array.iteri
      (fun i c ->
        for j = 0 to 2 do
          Engine.schedule_at engine
            ~time:(20. *. float_of_int j)
            (fun () ->
              Client.broadcast c
                (Payments.encode_op ~recipient:(i + j) ~amount:1))
        done)
      clients;
    let victim = n_servers - 1 in
    Engine.schedule_at engine ~time:t_crash (fun () -> D.crash_server d victim);
    Engine.schedule_at engine ~time:t_restart (fun () -> D.restart_server d victim);
    D.run d ~until:duration;
    Format.printf
      "durable store (seed %Ld, %d servers, checkpoint every %d batches)@."
      seed n_servers checkpoint_every;
    Format.printf
      "crash server %d at %gs, cold restart from disk at %gs, run %gs@.@."
      victim t_crash t_restart duration;
    Format.printf "  server  delivered  wal-bytes  wal-recs  ckpts  snapshot-B  disk-written@.";
    Array.iteri
      (fun i sv ->
        Format.printf "  %6d  %9d  %9d  %8d  %5d  %10d  %12d@." i
          (Server.delivered_messages sv)
          (D.server_wal_bytes d i) (D.server_wal_records d i)
          (D.server_checkpoints d i) (D.server_snapshot_bytes d i)
          (D.server_disk_bytes_written d i))
      (D.servers d);
    let sv = (D.servers d).(victim) in
    Format.printf
      "@.recovery: %d restart(s), %d sync round(s), %d record(s) transferred, \
       catching up: %b@."
      (Server.restarts sv) (Server.sync_rounds sv) (Server.catch_up_records sv)
      (Server.catching_up sv);
    Format.printf "collection: %d batch(es) collected on server 0@."
      (Server.collected_batches (D.servers d).(0));
    let reference = Payments.digest apps.(0) in
    let agree =
      Array.for_all (fun app -> Payments.digest app = reference) apps
    in
    Format.printf "app digests: %s@."
      (if agree then "MATCH (all servers identical)" else "MISMATCH");
    if agree && not (Server.catching_up sv) then `Ok ()
    else `Error (false, "store demo failed: digests diverge or victim not live")
  in
  let term =
    Term.(
      ret (const run $ seed_arg $ servers_arg $ ckpt_arg $ crash_arg $ restart_arg))
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Durable-store demo: crash a server, cold-restart it from its \
             WAL/checkpoint, state-transfer the rest, report disk + recovery \
             stats")
    term

let sweep_cmd =
  let module S = Repro_sweep.Sweep in
  let manifest_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "manifest" ] ~docv:"FILE"
          ~doc:"Sweep manifest JSON (see EXPERIMENTS.md for the format; \
                $(b,examples/sweep-quick.json) is a starting point).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "sweep-out"
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Output directory: per-cell JSON goes under \
                $(docv)/cells-<manifest-hash>/, the aggregate under \
                $(docv)/results-<manifest-hash>.json.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int 4
      & info [ "j"; "workers" ] ~docv:"N"
          ~doc:"Parallel forked workers (the sim is deterministic per \
                cell, so cells are embarrassingly parallel).")
  in
  let serial_arg =
    Arg.(
      value & flag
      & info [ "serial" ]
          ~doc:"Run cells one by one in-process (no fork, no timeout \
                enforcement).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 900.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-cell wall-clock timeout (parallel mode only).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"Expand the manifest, print cells, and exit.")
  in
  let figures_arg =
    Arg.(
      value & flag
      & info [ "figures" ]
          ~doc:"Skip running: aggregate whatever cell outputs exist and \
                render the figure tables.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Attach the engine self-profiler to run cells and embed its \
                deterministic counters as a $(b,profile) field in each cell \
                output (wall-time stays in the timings sidecar).")
  in
  let outcome_word = function
    | S.Pool.Completed -> "ok"
    | S.Pool.Skipped -> "skip"
    | S.Pool.Failed _ -> "FAIL"
    | S.Pool.Timed_out -> "TIMEOUT"
  in
  let run manifest out workers serial timeout list figures profile =
    match S.Manifest.load ~path:manifest with
    | Error e -> `Error (false, e)
    | Ok m ->
      let total = List.length m.S.Manifest.cells in
      Format.printf "sweep %s: %d cells, manifest hash %s@."
        m.S.Manifest.name total m.S.Manifest.hash;
      if list then begin
        List.iter
          (fun (c : S.Manifest.cell) ->
            Printf.printf "  %s  %s\n" c.S.Manifest.hash c.S.Manifest.label)
          m.S.Manifest.cells;
        `Ok ()
      end
      else if figures then begin
        let path = S.Aggregate.write ~out_dir:out m in
        let doc = Repro_metrics.Json.of_file ~path in
        S.Figures.render Format.std_formatter doc;
        Format.printf "results -> %s@." path;
        `Ok ()
      end
      else begin
        let reports =
          S.Pool.run ~workers ~timeout ~serial ~profile ~out_dir:out m
            ~on_report:(fun ~done_count ~total r ->
              Printf.printf "[%d/%d] %-7s %s  %s (%.1fs)\n%!" done_count total
                (outcome_word r.S.Pool.r_outcome)
                r.S.Pool.r_cell.S.Manifest.hash
                r.S.Pool.r_cell.S.Manifest.label r.S.Pool.r_wall;
              match r.S.Pool.r_outcome with
              | S.Pool.Failed msg -> Printf.printf "        %s\n%!" msg
              | _ -> ())
        in
        let path = S.Aggregate.write ~out_dir:out m in
        let doc = Repro_metrics.Json.of_file ~path in
        S.Figures.render Format.std_formatter doc;
        let count p = List.length (List.filter p reports) in
        let completed =
          count (fun r -> r.S.Pool.r_outcome = S.Pool.Completed)
        in
        let skipped = count (fun r -> r.S.Pool.r_outcome = S.Pool.Skipped) in
        let bad =
          List.filter
            (fun r ->
              match r.S.Pool.r_outcome with
              | S.Pool.Failed _ | S.Pool.Timed_out -> true
              | _ -> false)
            reports
        in
        Format.printf "sweep: %d completed, %d resumed (skipped), %d failed@."
          completed skipped (List.length bad);
        Format.printf "results -> %s@." path;
        if bad = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d cell(s) failed: %s" (List.length bad)
                (String.concat ", "
                   (List.map
                      (fun r -> r.S.Pool.r_cell.S.Manifest.hash)
                      bad)) )
      end
  in
  let term =
    Term.(
      ret
        (const run $ manifest_arg $ out_arg $ workers_arg $ serial_arg
        $ timeout_arg $ list_arg $ figures_arg $ profile_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a manifest-driven parameter sweep across parallel workers \
             and regenerate the figure grid")
    term

let profile_cmd =
  let module Cell = Repro_experiments.Cell in
  let module Prof = Repro_prof.Prof in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Simulation seed; the deterministic half of the report is \
                bit-identical for identical seeds.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the profile report as JSON here.")
  in
  let no_wall_arg =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:"Omit the machine-dependent wall-time half from the JSON \
                report — what remains is byte-identical across same-seed \
                runs (CI compares two runs with $(b,cmp)).")
  in
  let cell_of_scale = function
    | F.Quick -> Cell.default
    | F.Full ->
      { Cell.default with
        Cell.servers = 16; rate = 1_000_000.; batch = 16_384; duration = 12.;
        warmup = 4.; cooldown = 3.; dense_clients = 10_000_000 }
  in
  let run scale seed out no_wall =
    let c = { (cell_of_scale scale) with Cell.seed } in
    let o = Cell.run ~profile:true c in
    match o.Cell.prof with
    | None -> `Error (false, "profiler produced no report")
    | Some r ->
      Format.printf "%a@." Prof.pp_markdown r;
      Format.printf
        "run: %d engine events over %.0f simulated seconds \
         (throughput %.0f op/s)@."
        o.Cell.sim_events o.Cell.sim_seconds
        (Option.value ~default:0. (List.assoc_opt "throughput_ops" o.Cell.metrics));
      (try
         Option.iter
           (fun path ->
             Repro_metrics.Json.to_file ~path
               (Prof.to_json ~wall:(not no_wall) r);
             Format.printf "profile json -> %s@." path)
           out;
         `Ok ()
       with Sys_error e -> `Error (false, e))
  in
  let term =
    Term.(ret (const run $ scale_term $ seed_arg $ out_arg $ no_wall_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Self-profile the simulator: per-component handler wall-time, \
             GC pressure, queue depth/dwell — without perturbing the run")
    term

let doctor_cmd =
  let module C = Repro_chaos.Chaos in
  let module Doctor = Repro_prof.Doctor in
  let scenario_arg =
    Arg.(
      value
      & opt string "stall-partition"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Chaos scenario to diagnose (any $(b,chopchop chaos) \
                scenario, plus diagnostic-only ones like \
                $(b,stall-partition); see $(b,--list)).")
  in
  let chaos_scale_arg =
    let parse s =
      match C.scale_of_string s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|full)" s))
    in
    let print fmt s = Format.pp_print_string fmt (C.scale_to_string s) in
    Arg.(
      value
      & opt (conv (parse, print)) C.Quick
      & info [ "s"; "scale" ] ~docv:"SCALE"
          ~doc:"Scenario scale: $(b,quick) (4 servers) or $(b,full) (7).")
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")
  in
  let kill_at_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-at" ] ~docv:"T"
          ~doc:"Stop the simulation at $(docv) simulated seconds — a \
                post-mortem on a run killed before delivery completes.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the diagnosis as JSON here.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List diagnosable scenario names (chaos + diagnostic-only) \
                and exit.")
  in
  let run scenario scale seed kill_at out list =
    if list then begin
      List.iter
        (fun s -> Printf.printf "  %-20s %s\n" s.C.sc_name s.C.sc_summary)
        (C.scenarios @ C.diagnostics);
      `Ok ()
    end
    else
      match C.find_any scenario with
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown scenario %S; available: %s" scenario
              (String.concat ", "
                 (List.map
                    (fun s -> s.C.sc_name)
                    (C.scenarios @ C.diagnostics))) )
      | Some sc ->
        let v = sc.C.sc_run ?until:kill_at ~seed ~scale () in
        Format.printf "%a@." C.pp_verdict v;
        (match v.C.v_diagnosis with
         | None ->
           if v.C.v_pass then begin
             Format.printf
               "doctor: run healthy — %d/%d delivered, nothing to diagnose@."
               v.C.v_completed v.C.v_expected;
             `Ok ()
           end
           else `Error (false, "doctor: run failed but produced no diagnosis")
         | Some d ->
           (try
              Option.iter
                (fun path ->
                  Repro_metrics.Json.to_file ~path (Doctor.to_json d);
                  Format.printf "diagnosis json -> %s@." path)
                out;
              `Ok ()
            with Sys_error e -> `Error (false, e)))
  in
  let term =
    Term.(
      ret
        (const run $ scenario_arg $ chaos_scale_arg $ seed_arg $ kill_at_arg
        $ out_arg $ list_arg))
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Post-mortem a stalled or killed run: the delivery watchdog's \
             structured diagnosis (partition, quorum, deepest backlog)")
    term

let list_cmd =
  let term =
    Term.(
      const (fun () ->
          List.iter
            (fun (name, doc, _) -> Printf.printf "  %-18s %s\n" name doc)
            experiments)
      $ const ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids") term

let () =
  let doc = "Chop Chop (OSDI '24) reproduction — experiment driver" in
  let info = Cmd.info "chopchop" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; all_cmd; trace_cmd; metrics_cmd; chaos_cmd;
            store_cmd; sweep_cmd; profile_cmd; doctor_cmd ]))
