type issue =
  | Empty_trace
  | Non_monotonic_timestamps of int
  | Zero_length_segments of int

(* Capture-point faults (timestamp jitter, packet duplication) produce
   observation lists that violate the estimators' implicit invariants.
   [validate] turns each violation into a diagnostic; [sanitize] repairs
   what can be repaired (ordering) so estimation degrades instead of
   miscounting. *)
let validate trace =
  match Netsim.Trace.observations trace with
  | [] -> [ Empty_trace ]
  | obs ->
    let backward = ref 0 and zero_len = ref 0 in
    let rec walk = function
      | (a : Netsim.Trace.obs) :: (b :: _ as rest) ->
        if b.time < a.time then incr backward;
        walk rest
      | [ _ ] | [] -> ()
    in
    walk obs;
    List.iter
      (fun (o : Netsim.Trace.obs) ->
        match o.view with
        | Netsim.Trace.Tcp_view { payload; is_ack; _ } when (not is_ack) && payload <= 0 ->
          incr zero_len
        | Netsim.Trace.Tcp_view _ | Netsim.Trace.Opaque -> ())
      obs;
    let issues = if !zero_len > 0 then [ Zero_length_segments !zero_len ] else [] in
    if !backward > 0 then Non_monotonic_timestamps !backward :: issues else issues

let sanitize obs =
  let rec is_sorted = function
    | (a : Netsim.Trace.obs) :: (b :: _ as rest) -> a.time <= b.time && is_sorted rest
    | [ _ ] | [] -> true
  in
  if is_sorted obs then obs
  else List.stable_sort (fun (a : Netsim.Trace.obs) b -> Float.compare a.time b.time) obs

let estimate_tcp obs =
  let obs = sanitize obs in
  let max_end = ref 0 and max_ack = ref 0 in
  (* A data packet below the send front is a retransmission: its original
     copy was lost, so those bytes are no longer in flight. Track them as
     credits until the cumulative ack passes them (paper §3.1: "we also
     track re-transmissions and lost packets to correct BiF estimates"). *)
  let credits : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let correction = ref 0 in
  let expire_credits () =
    let expired =
      Hashtbl.fold (fun seq p acc -> if seq < !max_ack then (seq, p) :: acc else acc) credits []
    in
    List.iter
      (fun (seq, payload) ->
        Hashtbl.remove credits seq;
        correction := !correction - payload)
      expired
  in
  let point (o : Netsim.Trace.obs) =
    (match o.view with
    | Netsim.Trace.Tcp_view { seq; payload; ack; is_ack } ->
      if is_ack then begin
        if ack > !max_ack then begin
          max_ack := ack;
          expire_credits ()
        end
      end
      else if payload <= 0 then () (* zero-length segment: no bytes moved *)
      else if seq + payload > !max_end then max_end := seq + payload
      else if seq >= !max_ack && not (Hashtbl.mem credits seq) then begin
        Hashtbl.replace credits seq payload;
        correction := !correction + payload
      end
    | Netsim.Trace.Opaque -> ());
    (o.time, float_of_int (max 0 (!max_end - !max_ack - !correction)))
  in
  List.map point obs

(* Under encryption, retransmitted and dropped bytes are invisible, so the
   cumulative estimate picks up a slowly growing positive drift (one packet
   per undetectable loss). CCAs return to comparable BiF floors after every
   back-off, so the drift shows up as a rising trend in the waveform's
   local minima; fitting and subtracting that trend restores the shape
   without touching the oscillations Nebby classifies on. *)
let drift_correct points =
  match points with
  | [] | [ _ ] -> points
  | (t_first, _) :: _ ->
    let window = 4.0 in
    (* local minima per window *)
    let minima = Hashtbl.create 8 in
    List.iter
      (fun (t, v) ->
        let w = int_of_float ((t -. t_first) /. window) in
        match Hashtbl.find_opt minima w with
        | Some m when m <= v -> ()
        | Some _ | None -> Hashtbl.replace minima w v)
      points;
    let anchor_list =
      Hashtbl.fold (fun w m acc -> (float_of_int w, m) :: acc) minima []
    in
    if List.length anchor_list < 3 then points
    else begin
      let n = float_of_int (List.length anchor_list) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 anchor_list in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 anchor_list in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 anchor_list in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 anchor_list in
      let denom = (n *. sxx) -. (sx *. sx) in
      let slope = if Float.abs denom < 1e-9 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom in
      let slope = Float.max 0.0 slope /. window (* per second; only remove growth *) in
      List.map (fun (t, v) -> (t, Float.max 0.0 (v -. (slope *. (t -. t_first))))) points
    end

let estimate_quic obs =
  let obs = sanitize obs in
  let header = Netsim.Packet.header_size Netsim.Packet.Quic in
  let total_data, n_acks =
    List.fold_left
      (fun (data, acks) (o : Netsim.Trace.obs) ->
        match o.dir with
        | Netsim.Packet.To_client -> (data + max 0 (o.size - header), acks)
        | Netsim.Packet.To_server -> (data, acks + 1))
      (0, 0) obs
  in
  if n_acks = 0 then List.map (fun (o : Netsim.Trace.obs) -> (o.time, 0.0)) obs
  else begin
    let bytes_per_ack = float_of_int total_data /. float_of_int n_acks in
    let seen = ref 0.0 and acked = ref 0.0 in
    let point (o : Netsim.Trace.obs) =
      (match o.dir with
      | Netsim.Packet.To_client -> seen := !seen +. float_of_int (max 0 (o.size - header))
      | Netsim.Packet.To_server -> acked := !acked +. bytes_per_ack);
      (o.time, Float.max 0.0 (!seen -. !acked))
    in
    drift_correct (List.map point obs)
  end

let estimate trace =
  let obs = Netsim.Trace.observations trace in
  let has_tcp_view =
    List.exists
      (fun (o : Netsim.Trace.obs) ->
        match o.view with Netsim.Trace.Tcp_view _ -> true | Netsim.Trace.Opaque -> false)
      obs
  in
  if has_tcp_view then estimate_tcp obs else estimate_quic obs

let accuracy ~estimate ~truth =
  match (estimate, truth) with
  | [], _ | _, [] -> 0.0
  | _ ->
    let dt = 0.05 in
    let t0_e, est = Sigproc.Series.resample ~dt (Sigproc.Series.of_pairs estimate) in
    let t0_t, tru = Sigproc.Series.resample ~dt (Sigproc.Series.of_pairs truth) in
    let start = Float.max t0_e t0_t in
    let finish =
      Float.min
        (t0_e +. (dt *. float_of_int (Array.length est - 1)))
        (t0_t +. (dt *. float_of_int (Array.length tru - 1)))
    in
    if finish <= start then 0.0
    else begin
      let idx t0 time = int_of_float ((time -. t0) /. dt) in
      let n = idx start finish in
      let err = ref 0.0 and mag = ref 0.0 in
      for i = 0 to n - 1 do
        let time = start +. (float_of_int i *. dt) in
        let e = est.(min (Array.length est - 1) (idx t0_e time)) in
        let g = tru.(min (Array.length tru - 1) (idx t0_t time)) in
        err := !err +. Float.abs (e -. g);
        mag := !mag +. g
      done;
      if !mag <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 (1.0 -. (!err /. !mag)))
    end

let stats points =
  match points with
  | [] -> [ ("points", 0.0) ]
  | (t0, v0) :: rest ->
    let n, t_last, sum, max_v =
      List.fold_left
        (fun (n, _, sum, mx) (t, v) -> (n + 1, t, sum +. v, Float.max mx v))
        (1, t0, v0, v0) rest
    in
    [
      ("points", float_of_int n);
      ("duration_s", t_last -. t0);
      ("mean_bif", sum /. float_of_int n);
      ("max_bif", max_v);
    ]
