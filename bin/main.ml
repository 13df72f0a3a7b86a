(* chopchop — experiment CLI.

   `chopchop list` shows every experiment id; `chopchop run fig7 --scale
   quick` regenerates one figure; `chopchop all --scale full` regenerates
   the entire evaluation (EXPERIMENTS.md records a captured run);
   `chopchop trace -o t.json --report r.json` runs the observed
   deployment and dumps a Chrome-loadable trace, the per-phase latency
   breakdown and the JSON run report. *)

open Cmdliner
module F = Repro_experiments.Figures
module C = Repro_chaos.Chaos
module R = Repro_experiments.Chopchop_run
module LB = Repro_experiments.Latency_breakdown
module CP = Repro_experiments.Causal_path
module Report = Repro_experiments.Report

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
    ("headline", "saturation point, fails below 95% delivered", F.headline);
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

(* One [--scale] converter; each subcommand supplies its own help text. *)
let scale_opt ~doc =
  let parse s =
    match C.scale_of_string s with
    | Some sc -> Ok sc
    | None -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|full)" s))
  in
  let print fmt s = Format.pp_print_string fmt (C.scale_to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) C.Quick
    & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let scale_term =
  scale_opt
    ~doc:"Experiment scale: $(b,quick) (16 servers, short windows) or \
          $(b,full) (the paper's 64-server setup)."

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
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the run report as JSON here: a $(b,deterministic) \
                half (run result, latency breakdown, every trace counter, \
                every sampled time series, the engine profile's counters) \
                and a $(b,wall) half (the profile's handler wall-time).")
  in
  let no_wall_arg =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:"Leave the machine-dependent $(b,wall) half out of the \
                report: what remains is byte-identical across runs (CI \
                compares two runs with $(b,cmp)).")
  in
  let run scale out follow report no_wall =
    let r = Report.run (trace_params scale) in
    let sink = r.Report.sink in
    warn_drops sink;
    let write_report () =
      Option.iter
        (fun path ->
          Repro_metrics.Json.to_file ~path (Report.to_json ~wall:(not no_wall) r);
          Format.printf "report -> %s@." path)
        report
    in
    let idx = CP.index (Repro_trace.Trace.Sink.events sink) in
    try
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
           write_report ();
           `Ok ()
         | None ->
           `Error
             ( false,
               Printf.sprintf
                 "cannot follow %S: not a delivered message key (try \
                  `chopchop trace` to list candidates, or --follow auto)"
                 spec ))
      | None ->
        Format.printf "%a@.@." R.pp_result r.Report.result;
        Format.printf "%a@." LB.pp r.Report.breakdown;
        Repro_trace.Chrome.to_file sink out;
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
        write_report ();
        `Ok ()
    with Sys_error e -> `Error (false, e)
  in
  let term =
    Term.(
      ret
        (const run $ scale_term $ out_arg $ follow_arg $ report_arg
        $ no_wall_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the observed deployment (trace sink, metrics sampler and \
             engine profiler attached): latency breakdown, Chrome trace, \
             causal message paths and the JSON run report")
    term

let chaos_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario name, or $(b,all) (see $(b,--list)).")
  in
  let chaos_scale_arg =
    scale_opt ~doc:"Scenario scale: $(b,quick) (4 servers) or $(b,full) (7)."
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

let doctor_cmd =
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
    scale_opt ~doc:"Scenario scale: $(b,quick) (4 servers) or $(b,full) (7)."
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
          [ list_cmd; run_cmd; all_cmd; trace_cmd; chaos_cmd; sweep_cmd;
            doctor_cmd ]))
