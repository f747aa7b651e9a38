(* A miniature of the paper's headline experiment (§4.2, Table 4): measure
   the CCA deployed by each website of an Alexa-style population, from one
   vantage point, and tabulate the landscape. *)

let () =
  let control = Nebby.Training.default () in
  let websites = Internet.Population.generate ~n:60 ~seed:2023 () in
  List.iter
    (fun region ->
      let tally = Internet.Census.run ~control ~proto:Netsim.Packet.Tcp ~region websites in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
      Printf.printf "--- %s (%d sites) ---\n" (Internet.Region.name region) total;
      List.iter
        (fun (label, n) ->
          Printf.printf "  %-12s %3d  %5.1f%%\n" label n
            (100.0 *. float_of_int n /. float_of_int total))
        tally)
    [ Internet.Region.Ohio; Internet.Region.Mumbai ];
  (* the amazon.com pattern: different CCAs towards different regions *)
  let amazon =
    Internet.Heavy_hitters.website_of_entry ~rank:1
      (List.find
         (fun e -> e.Internet.Heavy_hitters.site = "amazon.com")
         Internet.Heavy_hitters.table5)
  in
  List.iter
    (fun region ->
      let label =
        (Internet.Census.explain_site ~control ~proto:Netsim.Packet.Tcp ~region amazon)
          .Nebby.Measurement.label
      in
      Printf.printf "amazon.com from %-10s -> %s\n" (Internet.Region.name region) label)
    [ Internet.Region.Ohio; Internet.Region.Mumbai ]
