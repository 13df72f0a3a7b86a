(** Manifest-driven parallel sweep orchestrator.

    The paper's evaluation is a large parameter grid (up to 320 machines
    swept over payload sizes, server counts, applications and faults,
    Figs. 9–11); this module makes regenerating such a grid one command.
    A JSON {e manifest} describes parameter blocks — each block a
    cartesian product over the axes of {!Repro_experiments.Cell.config}
    (or over chaos scenarios), with scalar per-block overrides —
    {!Manifest} expands it into a deterministic list of {e cells}, each
    keyed by a stable content hash of its resolved configuration.
    {!Pool} fans cells out across forked worker processes (the sim is
    deterministic and single-threaded per run, so this is embarrassingly
    parallel) with per-cell timeout, failure capture and {e resume}:
    cells whose output JSON already exists under the manifest hash are
    skipped, so an interrupted sweep picks up where it left off.
    {!Aggregate} folds the per-cell outputs into one pretty-printed
    results file keyed by the manifest hash, and {!Figures} renders the
    EXPERIMENTS.md-style tables from it.

    Manifest format (all block fields may be a scalar or a list; lists
    are axes and multiply, scalars override the top-level [defaults],
    which override the built-in {!Repro_experiments.Cell.default}):

    {v
    { "name": "quick grid",
      "defaults": { "servers": 4, "duration": 10.0 },
      "blocks": [
        { "kind": "run",
          "underlay": ["pbft", "hotstuff"],
          "payload": [8, 32],
          "seed": [42, 43] },
        { "kind": "chaos",
          "scenario": ["broker-garble", "partition-heal"],
          "scale": "quick",
          "seed": 42 } ] }
    v}

    Everything is deterministic: the same manifest expands to the same
    cells in the same order with the same hashes, and a cell's output is
    bit-identical however (and wherever) it is run. *)

module Manifest : sig
  type chaos_config = {
    scenario : string;
    scale : Repro_chaos.Chaos.scale;
    seed : int64;
  }

  type kind =
    | Run of Repro_experiments.Cell.config
    | Chaos of chaos_config

  type cell = {
    index : int;  (** position in expansion order (stable) *)
    block : int;  (** originating block *)
    kind : kind;
    hash : string;  (** content hash of the resolved config (16 hex) *)
    label : string;  (** short human-readable summary *)
  }

  type t = {
    name : string;
    hash : string;  (** content hash over all cell hashes (12 hex) *)
    cells : cell list;
  }

  val parse : string -> (t, string) result
  (** Parse and validate manifest JSON text.  Errors name the offending
      field and list the valid alternatives (fields, underlays, apps,
      chaos scenario names). *)

  val load : path:string -> (t, string) result
end

module Pool : sig
  type outcome =
    | Completed  (** output written this run *)
    | Skipped  (** valid output already on disk (resume) *)
    | Failed of string
    | Timed_out

  type report = {
    r_cell : Manifest.cell;
    r_outcome : outcome;
    r_wall : float;
        (** monotonic wall seconds spent on the cell this run
            ({!Repro_prof.Prof.Clock} — immune to NTP steps) *)
  }

  val cell_path : out_dir:string -> Manifest.t -> Manifest.cell -> string
  (** [<out_dir>/cells-<manifest-hash>/<cell-hash>.json]. *)

  val run_cell : ?profile:bool -> Manifest.cell -> Repro_metrics.Json.t
  (** Execute one cell in-process and return its output document
      (config + deterministic metrics; no timestamps, so reruns are
      bit-identical).  Runs the {!Repro_experiments.Cell} runner for
      [Run] cells and the named chaos scenario for [Chaos] cells.
      [profile] (default false) attaches the engine self-profiler to run
      cells and embeds its {e deterministic} half as a ["profile"] field
      — wall-time readings never enter the cell file. *)

  val run :
    ?workers:int ->
    ?timeout:float ->
    ?serial:bool ->
    ?profile:bool ->
    ?on_report:(done_count:int -> total:int -> report -> unit) ->
    out_dir:string ->
    Manifest.t ->
    report list
  (** Run every cell of the manifest, skipping cells whose output
      already exists and parses.  [workers] (default 4) forked Unix
      processes execute cells concurrently, each under a [timeout]
      (default 900 wall seconds, enforced by SIGKILL); worker failures
      are captured per-cell and do not abort the sweep.  [serial] (or an
      environment where [Unix.fork] is unavailable — the pool degrades
      automatically) runs cells one by one in-process, without timeout
      enforcement.  [profile] is passed to {!run_cell}.  Reports come
      back in manifest order; completed cells' wall times are merged
      into the [<out_dir>/timings-<manifest-hash>.json] sidecar (wall
      time never enters the cell files, which stay bit-identical across
      reruns), so resumed cells keep the timing of the run that computed
      them. *)
end

module Aggregate : sig
  val collect : out_dir:string -> Manifest.t -> Repro_metrics.Json.t
  (** Fold all per-cell outputs into one document (manifest order);
      cells with no valid output appear as [{"missing": true}] stubs.
      Wall seconds from the timings sidecar are attached to
      each present cell as a [wall_s] field. *)

  val write : out_dir:string -> Manifest.t -> string
  (** [collect] then write to [<out_dir>/results-<manifest-hash>.json];
      returns the path. *)
end

module Figures : sig
  val render : Format.formatter -> Repro_metrics.Json.t -> unit
  (** Render the figure-grid tables from an aggregated results document:
      the throughput/latency grid over run cells (with a simulator-speed
      events/wall-second column when timings are available), core-scaling
      and application tables when those axes vary, and the chaos-outcome
      table over chaos cells. *)
end
