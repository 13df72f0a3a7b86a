(** Regeneration of every table and figure of the paper's evaluation.

    Each [figN] function runs the corresponding experiment(s) and prints
    the series the paper plots, side by side with the paper's reported
    values where the paper gives them.  {!run_all} regenerates everything
    (EXPERIMENTS.md records a captured run).

    [Quick] shrinks systems and windows for development and CI; [Full] is
    the paper-scale configuration (64 servers, 14 regions, 65,536-message
    batches). *)

type scale = Repro_chaos.Chaos.scale = Quick | Full

val fig1 : Format.formatter -> scale -> unit
(** Context table: Internet-scale service rates vs Atomic Broadcast. *)

val fig3 : Format.formatter -> scale -> unit
(** Batch layout arithmetic: classic vs fully distilled sizes (Figs. 2–3,
    §2.1, §3.2 communication complexity). *)

val micro : Format.formatter -> scale -> unit
(** §3.2 microbenchmark: classic vs distilled batch authentication rate,
    from the calibrated cost model (the bechamel suite times this
    repository's own cryptography). *)

val fig7 : Format.formatter -> scale -> unit
(** Throughput–latency for Chop Chop (×2 underlays), Narwhal-Bullshark
    (±sig), BFT-SMaRt and HotStuff. *)

val cc_max : scale -> Chopchop_run.result
(** The ChopChop-BFT-SMaRt Fig. 7 point at the saturation rate (16
    servers at 2e7 op/s quick, 64 servers at 4.4e7 op/s full), memoised. *)

val headline : Format.formatter -> scale -> unit
(** The paper's headline at one scale: prints the {!cc_max} point and
    fails unless it delivers between 0.95 and 1.05 times the offered
    rate ({!Ceiling.check}) with a non-empty latency sample. *)

val fig8a : Format.formatter -> scale -> unit
(** Distillation benefit: 0% vs 100% distilled, vs the sig baseline. *)

val fig8b : Format.formatter -> scale -> unit
(** Message sizes 8–512 B. *)

val fig9 : Format.formatter -> scale -> unit
(** Line rate: input vs network vs output rates. *)

val fig10a : Format.formatter -> scale -> unit
(** Server scaling: 8/16/32/64 servers. *)

val fig10b : Format.formatter -> scale -> unit
(** Matched total resources (128 machines). *)

val fig11a : Format.formatter -> scale -> unit
(** Server crashes at t = 30 s: none / one / a third. *)

val fig11b : Format.formatter -> scale -> unit
(** Application use cases: Auction, Payments, Pixel war. *)

val silk_table : Format.formatter -> scale -> unit
(** §6.2: scp vs silk deployment time for 13 TB. *)

val ablation_timeout : Format.formatter -> scale -> unit
(** Design-choice ablation: the broker's reduce timeout (latency vs
    distillation completeness trade-off, §6.3). *)

val ablation_margin : Format.formatter -> scale -> unit
(** Design-choice ablation: witness margin f+1+m (§6.2). *)

val ablation_loss : Format.formatter -> scale -> unit
(** Adverse network conditions: client↔broker packet loss vs distillation
    completeness, latency and the reliable-UDP retransmission counters
    (§5.1, §6 "adverse network conditions").  Fails if a point completes
    nothing or gives a message up, if the lossless point retransmits, or
    if a lossy point does not. *)

val run_all : Format.formatter -> scale -> unit
