(* One run of one workload in this (fresh) process: generate the seeded
   inputs, time set-up, time the run, check it, and print one JSON object
   of raw readings on stdout.  run.py starts one process per run and
   aggregates; see README.md.

     main.exe --workload NAME --seed N [--traced] [--setup-only] *)

open Perfbench

let usage = "main.exe --workload NAME --seed N [--traced] [--setup-only]"

let () =
  let workload = ref "" and seed = ref (-1) in
  let traced = ref false and setup_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--traced", Arg.Set traced, " attach the per-layer ledger");
      ("--setup-only", Arg.Set setup_only, " time set-up and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.of_string !workload with
    | Some w when !seed >= 0 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let fields =
    if !setup_only then
      [ ("setup_s", `F (snd (Workload.setup (Workload.inputs w Workload.Full ~seed:!seed)))) ]
    else Report.measure ~traced:!traced w Workload.Full ~seed:!seed
  in
  print_endline
    (Report.json_of_fields
       ((("workload", `S !workload) :: ("seed", `I !seed) :: fields)))
