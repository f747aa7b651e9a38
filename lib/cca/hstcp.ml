let w_low = 38.0
let w_high = 83000.0
let b_high = 0.1

(* RFC 3649 closed forms. p(w) is the loss rate HighSpeed TCP is engineered
   to need for window w; a(w)/b(w) follow from the response function. *)
let b_of_w w =
  if w <= w_low then 0.5
  else (b_high -. 0.5) *. (log w -. log w_low) /. (log w_high -. log w_low) +. 0.5

let a_of_w w =
  if w <= w_low then 1.0
  else
    let p = 0.078 /. (w ** 1.2) in
    let b = b_of_w w in
    Float.max 1.0 (w *. w *. p *. 2.0 *. b /. (2.0 -. b))

let create params =
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    a_of_w s.cwnd /. s.cwnd *. acked_mss
  in
  let backoff (s : Loss_based.state) _ = s.cwnd *. (1.0 -. b_of_w s.cwnd) in
  Loss_based.build ~name:"hstcp" ~params ~ca_increment ~backoff ()
