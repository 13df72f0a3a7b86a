(* Process-global state check, in its own executable so the process is
   fresh: two same-seed profiled runs must allocate exactly the same minor
   words in every event kind.  Any cache that outlives a deployment (the
   dense-identity memo once did) makes the first run pay for what the
   second finds ready, and shows up here as a per-kind difference. *)

module Prof = Repro_prof.Prof
module Cell = Repro_experiments.Cell

let test_cell =
  { Cell.default with Cell.duration = 7.; warmup = 2.; cooldown = 1.;
    rate = 50_000.; dense_clients = 100_000 }

let minor_words_by_kind () =
  match (Cell.run ~profile:true test_cell).Cell.prof with
  | Some p -> List.map (fun r -> (r.Prof.r_kind, r.Prof.r_minor_words)) p.Prof.p_rows
  | None -> Alcotest.fail "profiled run produced no report"

let test_same_allocation () =
  let first = minor_words_by_kind () in
  let second = minor_words_by_kind () in
  Alcotest.(check (list string)) "same kinds" (List.map fst first)
    (List.map fst second);
  List.iter2
    (fun (kind, w1) (_, w2) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s minor words, first vs second run" kind)
        w1 w2)
    first second

let () =
  Alcotest.run "fresh"
    [ ( "isolation",
        [ Alcotest.test_case "same-seed runs allocate alike" `Quick
            test_same_allocation ] ) ]
