let create_custom ?(increment = 1.0) ?(beta = 0.5) params =
  Loss_based.build ~name:"newreno" ~params
    ~ca_increment:(fun s ev ->
      increment *. float_of_int ev.Cca_core.acked
      /. float_of_int params.Cca_core.mss /. s.Loss_based.cwnd)
    ~backoff:(fun s _ -> s.Loss_based.cwnd *. beta)
    ()

let create params = create_custom params
