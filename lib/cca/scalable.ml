let a = 0.01
let b = 0.125

let create params =
  Loss_based.build ~name:"scalable" ~params
    ~ca_increment:(fun _ ev ->
      a *. (float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss))
    ~backoff:(fun s _ -> s.Loss_based.cwnd *. (1.0 -. b))
    ()
