type series = { times : float array; values : float array }

type issue =
  | Empty_trace
  | Non_monotonic_timestamps of int
  | Zero_length_segments of int

(* Capture-point faults (timestamp jitter, packet duplication) produce
   traces that violate the estimators' implicit invariants. [validate]
   turns each violation into a diagnostic; [time_order] repairs what can
   be repaired (ordering) so estimation degrades instead of miscounting. *)
let validate trace =
  let module T = Netsim.Trace in
  let n = T.length trace in
  if n = 0 then [ Empty_trace ]
  else begin
    let times = T.times trace in
    let backward = ref 0 and zero_len = ref 0 in
    for i = 1 to n - 1 do
      if times.(i) < times.(i - 1) then incr backward
    done;
    for i = 0 to n - 1 do
      if (not (T.opaque trace i)) && (not (T.is_ack trace i)) && T.payload trace i <= 0 then
        incr zero_len
    done;
    let issues = if !zero_len > 0 then [ Zero_length_segments !zero_len ] else [] in
    if !backward > 0 then Non_monotonic_timestamps !backward :: issues else issues
  end

(* Observation indices in time order, and the capture times in that
   order: capture order when it is already sorted, else a stable sort by
   timestamp. *)
let time_order trace =
  let times = Netsim.Trace.times trace in
  let n = Array.length times in
  let order = Array.init n Fun.id in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if not (times.(i - 1) <= times.(i)) then sorted := false
  done;
  if !sorted then (order, times)
  else begin
    Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
    (order, Array.map (fun i -> times.(i)) order)
  end

let estimate_tcp trace (order, times) =
  let module T = Netsim.Trace in
  let max_end = ref 0 and max_ack = ref 0 in
  (* A data packet below the send front is a retransmission: its original
     copy was lost, so those bytes are no longer in flight. Track them as
     credits until the cumulative ack passes them (paper §3.1: "we also
     track re-transmissions and lost packets to correct BiF estimates"). *)
  let credits : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let correction = ref 0 in
  let expire_credits () =
    (* folding walks every bucket, and most traces never hold a credit *)
    if Hashtbl.length credits > 0 then begin
      let expired =
        Hashtbl.fold (fun seq p acc -> if seq < !max_ack then (seq, p) :: acc else acc) credits []
      in
      List.iter
        (fun (seq, payload) ->
          Hashtbl.remove credits seq;
          correction := !correction - payload)
        expired
    end
  in
  let values = Array.make (Array.length order) 0.0 in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    if not (T.opaque trace i) then begin
      let seq = T.seq trace i and payload = T.payload trace i in
      if T.is_ack trace i then begin
        let ack = T.ack trace i in
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
    end;
    values.(k) <- float_of_int (max 0 (!max_end - !max_ack - !correction))
  done;
  { times; values }

(* Under encryption, retransmitted and dropped bytes are invisible, so the
   cumulative estimate picks up a slowly growing positive drift (one packet
   per undetectable loss). CCAs return to comparable BiF floors after every
   back-off, so the drift shows up as a rising trend in the waveform's
   local minima; fitting and subtracting that trend restores the shape
   without touching the oscillations Nebby classifies on. Rewrites
   [values] in place. *)
let drift_correct { times; values } =
  let n = Array.length times in
  if n >= 2 then begin
    let t_first = times.(0) in
    let window = 4.0 in
    (* local minima per window *)
    let minima = Hashtbl.create 8 in
    for k = 0 to n - 1 do
      let w = int_of_float ((times.(k) -. t_first) /. window) in
      let v = values.(k) in
      match Hashtbl.find_opt minima w with
      | Some m when m <= v -> ()
      | Some _ | None -> Hashtbl.replace minima w v
    done;
    let anchor_list =
      Hashtbl.fold (fun w m acc -> (float_of_int w, m) :: acc) minima []
    in
    if List.length anchor_list >= 3 then begin
      let n = float_of_int (List.length anchor_list) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 anchor_list in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 anchor_list in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 anchor_list in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 anchor_list in
      let denom = (n *. sxx) -. (sx *. sx) in
      let slope = if Float.abs denom < 1e-9 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom in
      let slope = Float.max 0.0 slope /. window (* per second; only remove growth *) in
      Array.iteri
        (fun k t -> values.(k) <- Float.max 0.0 (values.(k) -. (slope *. (t -. t_first))))
        times
    end
  end

let estimate_quic trace (order, times) =
  let module T = Netsim.Trace in
  let header = Netsim.Packet.header_size Netsim.Packet.Quic in
  let n = Array.length order in
  let total_data = ref 0 and n_acks = ref 0 in
  for i = 0 to n - 1 do
    match T.dir trace i with
    | Netsim.Packet.To_client -> total_data := !total_data + max 0 (T.size trace i - header)
    | Netsim.Packet.To_server -> incr n_acks
  done;
  let values = Array.make n 0.0 in
  if !n_acks > 0 then begin
    let bytes_per_ack = float_of_int !total_data /. float_of_int !n_acks in
    let seen = ref 0.0 and acked = ref 0.0 in
    Array.iteri
      (fun k i ->
        (match T.dir trace i with
        | Netsim.Packet.To_client ->
          seen := !seen +. float_of_int (max 0 (T.size trace i - header))
        | Netsim.Packet.To_server -> acked := !acked +. bytes_per_ack);
        values.(k) <- Float.max 0.0 (!seen -. !acked))
      order;
    drift_correct { times; values }
  end;
  { times; values }

let estimate trace =
  let order = time_order trace in
  let n = Netsim.Trace.length trace in
  let rec has_tcp_view i = i < n && ((not (Netsim.Trace.opaque trace i)) || has_tcp_view (i + 1)) in
  if has_tcp_view 0 then estimate_tcp trace order else estimate_quic trace order

let accuracy ~estimate ~truth =
  match truth with
  | [] -> 0.0
  | _ when Array.length estimate.times = 0 -> 0.0
  | _ ->
    let dt = 0.05 in
    let t0_e, est =
      Sigproc.Series.resample ~dt ~times:estimate.times ~values:estimate.values
    in
    let t0_t, tru =
      Sigproc.Series.resample ~dt
        ~times:(Array.of_list (List.map fst truth))
        ~values:(Array.of_list (List.map snd truth))
    in
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

let stats { times; values } =
  let n = Array.length times in
  if n = 0 then [ ("points", 0.0) ]
  else begin
    let sum = ref values.(0) and max_v = ref values.(0) in
    for k = 1 to n - 1 do
      sum := !sum +. values.(k);
      max_v := Float.max !max_v values.(k)
    done;
    [
      ("points", float_of_int n);
      ("duration_s", times.(n - 1) -. times.(0));
      ("mean_bif", !sum /. float_of_int n);
      ("max_bif", !max_v);
    ]
  end
