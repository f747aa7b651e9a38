(* Quickstart: identify the CCA of one (simulated) web server.

   This is the whole public API in a nutshell:
   1. train the classifier once (control measurements, §3.4 step 4),
   2. measure a target — the testbed downloads a page through Nebby's
      capture-point bottleneck under both network profiles,
   3. read the classification. *)

let () =
  print_endline "Training the classifier on control measurements (once per process)...";
  let control = Nebby.Training.default () in

  (* The target: a server running CUBIC, measured across a mildly noisy
     wide-area path, exactly like a real website would be. *)
  let report =
    Nebby.Measurement.measure ~control ~noise:Netsim.Path.mild ~seed:7
      ~make_cca:(Cca.Registry.create "cubic") ()
  in
  Printf.printf "The server runs: %s (classified in %d attempt%s)\n"
    report.Nebby.Measurement.label report.attempts
    (if report.attempts = 1 then "" else "s");

  (* Under the hood: capture a trace and look at what Nebby sees. *)
  let profile = Nebby.Profile.delay_50ms in
  let result = Nebby.Testbed.run_cca ~profile ~seed:7 "cubic" in
  let bif = Nebby.Bif.estimate result.Nebby.Testbed.trace in
  let prepared = Nebby.Pipeline.prepare ~rtt:(Nebby.Profile.rtt profile) bif in
  Printf.printf "Captured %d packets over %.1f s -> %d BiF points, %d segments, %d back-offs\n"
    (Netsim.Trace.length result.Nebby.Testbed.trace)
    (Netsim.Trace.duration result.Nebby.Testbed.trace)
    (Array.length bif.Nebby.Bif.times)
    (Nebby.Pipeline.segment_count prepared)
    (List.length prepared.Nebby.Pipeline.backoffs);
  match prepared.Nebby.Pipeline.segments with
  | seg :: _ ->
    (match Nebby.Features.of_segment seg with
    | Some f ->
      Printf.printf
        "First segment: %.1f s long, best polynomial degree %d, back-off depth %.2f\n"
        f.Nebby.Features.duration f.degree f.drop_frac
    | None -> ())
  | [] -> ()
