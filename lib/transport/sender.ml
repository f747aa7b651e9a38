type segment = {
  seq : int;
  len : int;
  mutable sent_at : float;
  mutable retx : bool;
  mutable delivered_at_send : int;  (* sender's [delivered] when last sent *)
}

type t = {
  sim : Netsim.Sim.t;
  cca : Cca.t;
  proto : Netsim.Packet.proto;
  mss : int;
  total : int;
  out : Netsim.Packet.t -> unit;
  mutable next_seq : int;
  mutable snd_una : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recovery_point : int;
  mutable hole_end : int;  (* receiver's first-hole hint from the last ack *)
  segments : (int, segment) Hashtbl.t;  (* keyed by seq *)
  mutable retx_queue : int list;
  mutable next_pkt_id : int;
  (* RTT estimation *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable min_rtt : float;
  mutable rto : float;
  mutable rto_timer : Netsim.Timer.t;
  (* delivery-rate estimation over a sliding srtt window *)
  mutable delivered : int;
  mutable rcvd_total : int;  (* receiver's delivery counter from the last ack *)
  mutable last_rate : float;  (* most recent delivery-rate sample, bytes/s *)
  (* pacing *)
  mutable pacing_next : float;
  mutable send_scheduled : bool;
  mutable wake_send : unit -> unit;  (* [send_loop] on this sender, allocated once *)
  (* ground truth, one column per field *)
  mutable bif_times : float array;
  mutable bif_bytes : int array;
  mutable bif_count : int;
  mutable retransmissions : int;
  (* fault-injection controls *)
  mutable stalled_until : float;  (* application stall: no sends before this *)
  mutable dead : bool;  (* mid-flow reset: the connection is gone *)
  acks : Obs.Metrics.hot;  (* the per-ACK counter, without a name lookup *)
}

let inflight t = t.next_seq - t.snd_una
let finished t = t.snd_una >= t.total

let bif_samples t =
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) ((t.bif_times.(i), float_of_int t.bif_bytes.(i)) :: acc)
  in
  build (t.bif_count - 1) []

let retransmissions t = t.retransmissions
let was_reset t = t.dead

let stall t ~until =
  t.stalled_until <- Float.max t.stalled_until until;
  Obs.Flight.stall ~time:(Netsim.Sim.now t.sim) ~until:t.stalled_until

let reset t =
  t.dead <- true;
  (* cancel the pending RTO so the dead sender never wakes up *)
  Netsim.Timer.cancel t.rto_timer

(* The ground-truth BiF log samples on both clocks; the flight recorder
   keeps the ACK-clock samples at Normal and the (equally numerous)
   send-clock ones only at Debug. *)
let sample_bif ?(send = false) t =
  let now = Netsim.Sim.now t.sim in
  if t.bif_count = Array.length t.bif_times then begin
    let cap = max 1024 (2 * t.bif_count) in
    let times = Array.make cap 0.0 and bytes = Array.make cap 0 in
    Array.blit t.bif_times 0 times 0 t.bif_count;
    Array.blit t.bif_bytes 0 bytes 0 t.bif_count;
    t.bif_times <- times;
    t.bif_bytes <- bytes
  end;
  t.bif_times.(t.bif_count) <- now;
  t.bif_bytes.(t.bif_count) <- inflight t;
  t.bif_count <- t.bif_count + 1;
  if send then Obs.Flight.bif_send ~time:now ~bytes:(inflight t)
  else Obs.Flight.bif ~time:now ~bytes:(inflight t)


(* BBR-style rate sample: the delivery progress made while [seg] was in
   flight, which is bounded by the true path throughput even when a
   recovery-ending ack advances snd_una by many segments at once. *)
let rate_sample t now (seg : segment) =
  let dt = now -. seg.sent_at in
  if dt <= 1e-6 then None
  else Some (float_of_int (t.rcvd_total - seg.delivered_at_send) /. dt)

(* RTO handling: one logical timer, re-armed on every ack. *)
let arm_rto t = Netsim.Timer.arm t.rto_timer ~at:(Netsim.Sim.now t.sim +. t.rto)

let rec fire_rto t =
  if (not (finished t)) && inflight t > 0 then begin
    t.cca.Cca.on_loss
      { Cca.now = Netsim.Sim.now t.sim; inflight = inflight t; by_timeout = true };
    t.retx_queue <- [ t.snd_una ];
    t.in_recovery <- true;
    t.recovery_point <- t.next_seq;
    t.dupacks <- 0;
    t.rto <- Float.min 16.0 (t.rto *. 2.0);
    arm_rto t;
    try_send t
  end

and emit t seg ~retx =
  let now = Netsim.Sim.now t.sim in
  seg.sent_at <- now;
  seg.delivered_at_send <- t.rcvd_total;
  if retx then begin
    seg.retx <- true;
    t.retransmissions <- t.retransmissions + 1;
    Obs.Flight.retx ~time:now ~seq:seg.seq
  end;
  let pkt =
    Netsim.Packet.data t.proto ~id:t.next_pkt_id ~seq:seg.seq ~payload:seg.len ~retx ~now
  in
  t.next_pkt_id <- t.next_pkt_id + 1;
  t.out pkt;
  sample_bif ~send:true t

and try_send t =
  if not t.send_scheduled then send_loop t

and send_loop t =
  t.send_scheduled <- false;
  if t.dead then ()
  else begin
  let now = Netsim.Sim.now t.sim in
  if t.stalled_until > now +. 1e-12 then begin
    (* application stall: park the loop until the stall lifts *)
    t.send_scheduled <- true;
    Netsim.Sim.at t.sim t.stalled_until t.wake_send
  end
  else begin
  let cwnd = t.cca.Cca.cwnd () in
  let pacing = t.cca.Cca.pacing_rate () in
  let gated_by_pacing = match pacing with Some _ -> t.pacing_next > now +. 1e-12 | None -> false in
  if gated_by_pacing then begin
    t.send_scheduled <- true;
    Netsim.Sim.at t.sim t.pacing_next t.wake_send
  end
  else begin
    let suspected_lost =
      if t.in_recovery && t.hole_end > t.snd_una then
        min (inflight t) (t.hole_end - t.snd_una)
      else 0
    in
    let pipe = inflight t - suspected_lost in
    let can_window = float_of_int pipe < cwnd in
    let next_work =
      match t.retx_queue with
      | seq :: rest -> Some (`Retx (seq, rest))
      | [] -> if t.next_seq < t.total then Some `Fresh else None
    in
    let allowed =
      (* repairs are never window-gated: fast retransmit must go out even
         when the pipe is full, else recovery deadlocks *)
      match next_work with Some (`Retx _) -> true | Some `Fresh -> can_window | None -> false
    in
    match next_work with
    | None -> ()
    | Some work when allowed ->
      let sent_len =
        match work with
        | `Retx (seq, rest) ->
          t.retx_queue <- rest;
          (match Hashtbl.find_opt t.segments seq with
          | Some seg when seg.seq >= t.snd_una ->
            emit t seg ~retx:true;
            seg.len
          | Some _ | None -> 0 (* already acked meanwhile *))
        | `Fresh ->
          let len = min t.mss (t.total - t.next_seq) in
          let seg =
            { seq = t.next_seq; len; sent_at = now; retx = false; delivered_at_send = t.rcvd_total }
          in
          Hashtbl.replace t.segments seg.seq seg;
          t.next_seq <- t.next_seq + len;
          emit t seg ~retx:false;
          len
      in
      (match pacing with
      | Some rate when rate > 0.0 && sent_len > 0 ->
        t.pacing_next <- Float.max now t.pacing_next +. (float_of_int sent_len /. rate)
      | Some _ | None -> ());
      send_loop t
    | Some _ -> () (* window-limited: wait for acks *)
  end
  end
  end

(* queue every segment in [snd_una, upto) for retransmission, skipping
   duplicates; [upto <= snd_una] queues just the head segment *)
let queue_retx_range t upto =
  let upto = max upto (t.snd_una + 1) in
  let rec walk seq acc =
    if seq >= upto || seq >= t.next_seq then List.rev acc
    else
      match Hashtbl.find_opt t.segments seq with
      | Some seg ->
        let now = Netsim.Sim.now t.sim in
        (* a repair is only re-sent once its own ack had time to return *)
        let recently_sent = now -. seg.sent_at < 1.2 *. Float.max 0.02 t.srtt in
        let acc =
          if recently_sent || List.mem seq t.retx_queue || List.mem seq acc then acc
          else seq :: acc
        in
        walk (seg.seq + seg.len) acc
      | None -> List.rev acc
  in
  t.retx_queue <- t.retx_queue @ walk t.snd_una []

let update_rtt t now seg =
  let sample = now -. seg.sent_at in
  if not seg.retx then begin
    (* Karn's algorithm: never sample retransmitted segments *)
    t.min_rtt <- Float.min t.min_rtt sample;
    if t.srtt = 0.0 then begin
      t.srtt <- sample;
      t.rttvar <- sample /. 2.0
    end
    else begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
    end;
    (* RFC 6298: a 1 s floor avoids spurious timeouts racing recovery *)
    t.rto <- Float.max 1.0 (t.srtt +. (4.0 *. t.rttvar));
    Some sample
  end
  else None

let handle_ack t (pkt : Netsim.Packet.t) =
  if t.dead then ()
  else begin
  let now = Netsim.Sim.now t.sim in
  let ack = pkt.ack in
  t.hole_end <- pkt.hole_end;
  t.rcvd_total <- max t.rcvd_total pkt.received_total;
  if ack > t.snd_una then begin
    let newly = ack - t.snd_una in
    (* the segment whose last byte this ack covers provides the RTT sample *)
    t.delivered <- t.delivered + newly;
    let rtt_sample, rate =
      let rec search seq rtt_acc rate_acc =
        if seq >= ack then (rtt_acc, rate_acc)
        else
          match Hashtbl.find_opt t.segments seq with
          | None -> (rtt_acc, rate_acc)
          | Some seg ->
            let rtt_acc = match update_rtt t now seg with Some s -> Some s | None -> rtt_acc in
            let rate_acc =
              if seg.retx then rate_acc
              else
                match rate_sample t now seg with
                | Some r -> Float.max r rate_acc
                | None -> rate_acc
            in
            Hashtbl.remove t.segments seq;
            search (seg.seq + seg.len) rtt_acc rate_acc
      in
      search t.snd_una None 0.0
    in
    t.last_rate <- (if rate > 0.0 then rate else t.last_rate);
    t.snd_una <- ack;
    t.dupacks <- 0;
    if t.in_recovery then begin
      if ack >= t.recovery_point then t.in_recovery <- false
      else
        (* partial ack: repair the next reported hole *)
        queue_retx_range t t.hole_end
    end;
    let rtt = match rtt_sample with Some s -> s | None -> Float.max 1e-4 t.srtt in
    let app_limited = t.next_seq >= t.total in
    t.cca.Cca.on_ack
      {
        Cca.now;
        rtt;
        min_rtt = (if Float.is_finite t.min_rtt then t.min_rtt else rtt);
        srtt = (if t.srtt > 0.0 then t.srtt else rtt);
        acked = newly;
        inflight = inflight t;
        delivery_rate = t.last_rate;
        app_limited;
        in_recovery = t.in_recovery;
      };
    Obs.Metrics.tick t.acks;
    if Obs.Flight.want_cca_state () then begin
      let snap = t.cca.Cca.snapshot () in
      Obs.Flight.cca_state ~time:now ~cca:t.cca.Cca.name ~cwnd:snap.Cca.snap_cwnd
        ~ssthresh:snap.Cca.snap_ssthresh ~pacing:snap.Cca.snap_pacing
        ~mode:snap.Cca.snap_mode
    end;
    sample_bif t;
    if not (finished t) then arm_rto t else Netsim.Timer.cancel t.rto_timer;
    try_send t
  end
  else begin
    (* duplicate ack *)
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 && not t.in_recovery then begin
      t.in_recovery <- true;
      t.recovery_point <- t.next_seq;
      t.cca.Cca.on_loss { Cca.now; inflight = inflight t; by_timeout = false };
      queue_retx_range t t.hole_end;
      sample_bif t;
      try_send t
    end
    else if t.in_recovery && t.dupacks > 3 then begin
      (* the repair itself may have been lost (the queue was overflowing
         when it went out); the recency guard inside queue_retx_range keeps
         this from duplicating a repair still in flight *)
      queue_retx_range t t.hole_end;
      try_send t
    end
  end
  end

let create sim ~cca ~proto ~params ~total_bytes ~out =
  let t =
    {
      sim;
      cca;
      proto;
      mss = params.Cca.mss;
      total = total_bytes;
      out;
      next_seq = 0;
      snd_una = 0;
      dupacks = 0;
      in_recovery = false;
      recovery_point = 0;
      hole_end = 0;
      segments = Hashtbl.create 64;
      retx_queue = [];
      next_pkt_id = 0;
      srtt = 0.0;
      rttvar = 0.0;
      min_rtt = infinity;
      rto = 1.0;
      rto_timer = Netsim.Timer.create sim ignore;
      delivered = 0;
      rcvd_total = 0;
      last_rate = 0.0;
      pacing_next = 0.0;
      send_scheduled = false;
      wake_send = ignore;
      bif_times = [||];
      bif_bytes = [||];
      bif_count = 0;
      retransmissions = 0;
      stalled_until = 0.0;
      dead = false;
      acks = Obs.Metrics.hot "transport.acks";
    }
  in
  (* both closures need [t]; each is allocated once per sender *)
  t.rto_timer <- Netsim.Timer.create sim (fun () -> fire_rto t);
  t.wake_send <- (fun () -> send_loop t);
  t

let start t =
  arm_rto t;
  try_send t
