(* Every float of a connection, in one all-float record: OCaml stores its
   fields flat, so updating one writes in place instead of allocating a
   box, as a float field of the mixed record [t] would. *)
type floats = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable min_rtt : float;
  mutable rto : float;
  mutable last_rate : float;  (* most recent delivery-rate sample, bytes/s *)
  mutable pacing_next : float;
  mutable stalled_until : float;  (* application stall: no sends before this *)
  (* the CCA state the flight recorder last recorded for this connection *)
  mutable rec_cwnd : float;
  mutable rec_ssthresh : float;
  mutable rec_pacing : float;
}

(* Per-segment flags in the send window. *)
let retx_bit = 1  (* sent more than once: Karn's rule skips its RTT sample *)
let queued_bit = 2  (* waiting in the retransmission queue *)

type t = {
  sim : Netsim.Sim.t;
  cca : Cca.t;
  proto : Netsim.Packet.proto;
  mss : int;
  total : int;
  out : Netsim.Packet.t -> unit;
  fl : floats;
  mutable next_seq : int;
  mutable snd_una : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recovery_point : int;
  mutable hole_end : int;  (* receiver's first-hole hint from the last ack *)
  (* The send window: the segments in [snd_una, next_seq), which are
     MSS-sized and start at multiples of the MSS (only the page's last
     segment may be short). Segment [seq] lives in slot
     [(seq / mss) land mask] of each column; the columns double whenever
     a fresh segment would not fit. *)
  mutable sent_at : float array;
  mutable delivered_at_send : int array;  (* receiver's delivery counter when last sent *)
  mutable seg_flags : Bytes.t;
  mutable mask : int;
  (* The retransmission queue, a FIFO ring of segment starts. A segment
     still in the window carries [queued_bit] exactly while it is queued;
     an entry whose segment was acked meanwhile is skipped when popped. *)
  mutable retx_seqs : int array;
  mutable retx_head : int;
  mutable retx_len : int;
  mutable next_pkt_id : int;
  mutable rto_timer : Netsim.Timer.t;
  mutable rcvd_total : int;  (* receiver's delivery counter from the last ack *)
  mutable send_scheduled : bool;
  mutable wake_send : unit -> unit;  (* [send_loop] on this sender, allocated once *)
  ack_ev : Cca.ack_event;  (* handed to [on_ack], overwritten on every ack *)
  snap : Cca.snapshot;  (* filled by [Cca.snapshot] for the flight recorder *)
  mutable rec_mode : string;  (* mode of the last recorded reading, "" before the first *)
  (* ground truth, one column per field *)
  mutable bif_times : float array;
  mutable bif_bytes : int array;
  mutable bif_acked : Bytes.t;  (* '\001' where the sample was taken on an ack *)
  mutable bif_count : int;
  mutable retransmissions : int;
  mutable dead : bool;  (* mid-flow reset: the connection is gone *)
  acks : Obs.Metrics.hot;  (* the per-ACK counter, without a name lookup *)
}

let inflight t = t.next_seq - t.snd_una
let finished t = t.snd_una >= t.total

let bif_log t ~run =
  {
    Obs.Flight.log_run = run;
    log_times = t.bif_times;
    log_bytes = t.bif_bytes;
    log_acked = t.bif_acked;
    log_count = t.bif_count;
  }

let retransmissions t = t.retransmissions
let was_reset t = t.dead

let stall t ~until =
  t.fl.stalled_until <- Float.max t.fl.stalled_until until;
  Obs.Flight.stall ~time:(Netsim.Sim.now t.sim) ~until:t.fl.stalled_until

let reset t =
  t.dead <- true;
  (* cancel the pending RTO so the dead sender never wakes up *)
  Netsim.Timer.cancel t.rto_timer

(* The ground-truth BiF log samples on both clocks and flags the ACK-clock
   samples. It is the only record of the series: an anomaly dump takes its
   BiF rows from these columns ([Obs.Flight.capture]). *)
let sample_bif ?(send = false) t =
  let now = Netsim.Sim.now t.sim in
  if t.bif_count = Array.length t.bif_times then begin
    let cap = max 1024 (2 * t.bif_count) in
    let times = Array.make cap 0.0 and bytes = Array.make cap 0 in
    let acked = Bytes.make cap '\000' in
    Array.blit t.bif_times 0 times 0 t.bif_count;
    Array.blit t.bif_bytes 0 bytes 0 t.bif_count;
    Bytes.blit t.bif_acked 0 acked 0 t.bif_count;
    t.bif_times <- times;
    t.bif_bytes <- bytes;
    t.bif_acked <- acked
  end;
  t.bif_times.(t.bif_count) <- now;
  t.bif_bytes.(t.bif_count) <- inflight t;
  Bytes.set t.bif_acked t.bif_count (if send then '\000' else '\001');
  t.bif_count <- t.bif_count + 1

let slot t seq = (seq / t.mss) land t.mask
let seg_len t seq = min t.mss (t.total - seq)
let has_flag t i bit = Char.code (Bytes.unsafe_get t.seg_flags i) land bit <> 0

let set_flag t i bit on =
  let f = Char.code (Bytes.unsafe_get t.seg_flags i) in
  Bytes.unsafe_set t.seg_flags i (Char.unsafe_chr (if on then f lor bit else f land lnot bit))

(* Double the window's columns, moving every segment in flight to its
   slot under the new mask. *)
let grow_window t =
  let cap = 2 * (t.mask + 1) in
  let sent_at = Array.make cap 0.0 and delivered = Array.make cap 0 in
  let flags = Bytes.make cap '\000' in
  let seq = ref t.snd_una in
  while !seq < t.next_seq do
    let i = slot t !seq and j = (!seq / t.mss) land (cap - 1) in
    sent_at.(j) <- t.sent_at.(i);
    delivered.(j) <- t.delivered_at_send.(i);
    Bytes.set flags j (Bytes.get t.seg_flags i);
    seq := !seq + t.mss
  done;
  t.sent_at <- sent_at;
  t.delivered_at_send <- delivered;
  t.seg_flags <- flags;
  t.mask <- cap - 1

(* Append [seq] to the retransmission queue (it must be in the window). *)
let enqueue_retx t seq =
  let cap = Array.length t.retx_seqs in
  if t.retx_len = cap then begin
    let seqs = Array.make (2 * cap) 0 in
    for k = 0 to t.retx_len - 1 do
      seqs.(k) <- t.retx_seqs.((t.retx_head + k) land (cap - 1))
    done;
    t.retx_seqs <- seqs;
    t.retx_head <- 0
  end;
  t.retx_seqs.((t.retx_head + t.retx_len) land (Array.length t.retx_seqs - 1)) <- seq;
  t.retx_len <- t.retx_len + 1;
  set_flag t (slot t seq) queued_bit true

let in_window t seq = seq >= t.snd_una && seq < t.next_seq

(* Take the head of the retransmission queue (the queue is not empty). *)
let dequeue_retx t =
  let seq = t.retx_seqs.(t.retx_head) in
  t.retx_head <- (t.retx_head + 1) land (Array.length t.retx_seqs - 1);
  t.retx_len <- t.retx_len - 1;
  if in_window t seq then set_flag t (slot t seq) queued_bit false;
  seq

(* RTO handling: one logical timer, re-armed on every ack. *)
let arm_rto t = Netsim.Timer.arm t.rto_timer ~at:(Netsim.Sim.now t.sim +. t.fl.rto)

let rec fire_rto t =
  if (not (finished t)) && inflight t > 0 then begin
    t.cca.Cca.on_loss
      { Cca.now = Netsim.Sim.now t.sim; inflight = inflight t; by_timeout = true };
    (* the timeout replaces the whole queue with the head segment *)
    while t.retx_len > 0 do
      ignore (dequeue_retx t)
    done;
    enqueue_retx t t.snd_una;
    t.in_recovery <- true;
    t.recovery_point <- t.next_seq;
    t.dupacks <- 0;
    t.fl.rto <- Float.min 16.0 (t.fl.rto *. 2.0);
    arm_rto t;
    try_send t
  end

and emit t seq ~retx =
  let now = Netsim.Sim.now t.sim in
  let i = slot t seq in
  t.sent_at.(i) <- now;
  t.delivered_at_send.(i) <- t.rcvd_total;
  if retx then begin
    set_flag t i retx_bit true;
    t.retransmissions <- t.retransmissions + 1;
    Obs.Flight.retx ~time:now ~seq
  end;
  let pkt =
    Netsim.Packet.data t.proto ~id:t.next_pkt_id ~seq ~payload:(seg_len t seq) ~retx
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
  if t.fl.stalled_until > now +. 1e-12 then begin
    (* application stall: park the loop until the stall lifts *)
    t.send_scheduled <- true;
    Netsim.Sim.at t.sim t.fl.stalled_until t.wake_send
  end
  else begin
  let cwnd = t.cca.Cca.cwnd () in
  let pacing = t.cca.Cca.pacing_rate () in
  let gated_by_pacing = match pacing with Some _ -> t.fl.pacing_next > now +. 1e-12 | None -> false in
  if gated_by_pacing then begin
    t.send_scheduled <- true;
    Netsim.Sim.at t.sim t.fl.pacing_next t.wake_send
  end
  else begin
    let sent_len =
      if t.retx_len > 0 then begin
        (* repairs are never window-gated: fast retransmit must go out even
           when the pipe is full, else recovery deadlocks *)
        let seq = dequeue_retx t in
        if seq >= t.snd_una then begin
          emit t seq ~retx:true;
          seg_len t seq
        end
        else 0 (* already acked meanwhile *)
      end
      else if t.next_seq < t.total then begin
        let suspected_lost =
          if t.in_recovery && t.hole_end > t.snd_una then
            min (inflight t) (t.hole_end - t.snd_una)
          else 0
        in
        let pipe = inflight t - suspected_lost in
        if float_of_int pipe < cwnd then begin
          let seq = t.next_seq in
          if (seq - t.snd_una) / t.mss > t.mask then grow_window t;
          Bytes.unsafe_set t.seg_flags (slot t seq) '\000';
          t.next_seq <- seq + seg_len t seq;
          emit t seq ~retx:false;
          seg_len t seq
        end
        else -1 (* window-limited: wait for acks *)
      end
      else -1 (* nothing left to send *)
    in
    if sent_len >= 0 then begin
      (match pacing with
      | Some rate when rate > 0.0 && sent_len > 0 ->
        t.fl.pacing_next <- Float.max now t.fl.pacing_next +. (float_of_int sent_len /. rate)
      | Some _ | None -> ());
      send_loop t
    end
  end
  end
  end

(* queue every segment in [snd_una, upto) for retransmission, skipping
   queued ones; [upto <= snd_una] queues just the head segment *)
let queue_retx_range t upto =
  let upto = max upto (t.snd_una + 1) in
  let now = Netsim.Sim.now t.sim in
  let seq = ref t.snd_una in
  while !seq < upto && !seq < t.next_seq do
    let i = slot t !seq in
    (* a repair is only re-sent once its own ack had time to return *)
    let recently_sent = now -. t.sent_at.(i) < 1.2 *. Float.max 0.02 t.fl.srtt in
    if not (recently_sent || has_flag t i queued_bit) then enqueue_retx t !seq;
    seq := !seq + t.mss
  done

(* The flight recorder keeps the CCA's state on change only: the first
   reading of the connection, then any reading whose mode differs, whose
   cwnd moved by at least one MSS or whose ssthresh moved at all since the
   last recorded one, or whose pacing rate moved by more than 1%. *)
let record_cca_state t now =
  let mode = t.cca.Cca.snapshot t.snap in
  let snap = t.snap and fl = t.fl in
  if
    not (String.equal mode t.rec_mode)
    || Float.abs (snap.Cca.snap_cwnd -. fl.rec_cwnd) >= float_of_int t.mss
    || snap.Cca.snap_ssthresh <> fl.rec_ssthresh
    || Float.abs (snap.Cca.snap_pacing -. fl.rec_pacing) > 0.01 *. Float.abs fl.rec_pacing
  then begin
    t.rec_mode <- mode;
    fl.rec_cwnd <- snap.Cca.snap_cwnd;
    fl.rec_ssthresh <- snap.Cca.snap_ssthresh;
    fl.rec_pacing <- snap.Cca.snap_pacing;
    Obs.Flight.cca_state ~time:now ~cca:t.cca.Cca.name ~mode snap
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  if t.dead then ()
  else begin
  let now = Netsim.Sim.now t.sim in
  let ack = pkt.ack in
  t.hole_end <- pkt.hole_end;
  t.rcvd_total <- max t.rcvd_total pkt.received_total;
  if ack > t.snd_una then begin
    let newly = ack - t.snd_una in
    (* Walk the newly acked segments. Each one sent only once gives an RTT
       sample (Karn's algorithm), the last of which is the ack's [rtt], and
       a BBR-style rate sample: the delivery progress made while it was in
       flight, which is bounded by the true path throughput even when a
       recovery-ending ack advances snd_una by many segments at once. *)
    let fl = t.fl in
    let rtt_sample = ref 0.0 and sampled = ref false and rate = ref 0.0 in
    let seq = ref t.snd_una in
    while !seq < ack && !seq < t.next_seq do
      let i = slot t !seq in
      if not (has_flag t i retx_bit) then begin
        let sample = now -. t.sent_at.(i) in
        fl.min_rtt <- Float.min fl.min_rtt sample;
        if fl.srtt = 0.0 then begin
          fl.srtt <- sample;
          fl.rttvar <- sample /. 2.0
        end
        else begin
          fl.rttvar <- (0.75 *. fl.rttvar) +. (0.25 *. Float.abs (fl.srtt -. sample));
          fl.srtt <- (0.875 *. fl.srtt) +. (0.125 *. sample)
        end;
        (* RFC 6298: a 1 s floor avoids spurious timeouts racing recovery *)
        fl.rto <- Float.max 1.0 (fl.srtt +. (4.0 *. fl.rttvar));
        rtt_sample := sample;
        sampled := true;
        if not (sample <= 1e-6) then
          rate := Float.max (float_of_int (t.rcvd_total - t.delivered_at_send.(i)) /. sample) !rate
      end;
      seq := !seq + seg_len t !seq
    done;
    if !rate > 0.0 then fl.last_rate <- !rate;
    t.snd_una <- ack;
    t.dupacks <- 0;
    if t.in_recovery then begin
      if ack >= t.recovery_point then t.in_recovery <- false
      else
        (* partial ack: repair the next reported hole *)
        queue_retx_range t t.hole_end
    end;
    let rtt = if !sampled then !rtt_sample else Float.max 1e-4 fl.srtt in
    let ev = t.ack_ev in
    let sample = ev.Cca.sample in
    sample.now <- now;
    sample.rtt <- rtt;
    sample.min_rtt <- (if Float.is_finite fl.min_rtt then fl.min_rtt else rtt);
    sample.srtt <- (if fl.srtt > 0.0 then fl.srtt else rtt);
    sample.delivery_rate <- fl.last_rate;
    ev.acked <- newly;
    ev.inflight <- inflight t;
    ev.app_limited <- t.next_seq >= t.total;
    ev.in_recovery <- t.in_recovery;
    t.cca.Cca.on_ack ev;
    Obs.Metrics.tick t.acks;
    if Obs.Flight.want_cca_state () then record_cca_state t now;
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

let expected_samples ~mss ~total_bytes =
  let segments = (total_bytes + mss - 1) / mss in
  max 1024 (min (1 lsl 16) (segments * 5 / 2))

let create sim ~cca ~proto ~params ~total_bytes ~out =
  let mss = params.Cca.mss in
  let window = 64 and samples = expected_samples ~mss ~total_bytes in
  let t =
    {
      sim;
      cca;
      proto;
      mss;
      total = total_bytes;
      out;
      fl =
        {
          srtt = 0.0;
          rttvar = 0.0;
          min_rtt = infinity;
          rto = 1.0;
          last_rate = 0.0;
          pacing_next = 0.0;
          stalled_until = 0.0;
          rec_cwnd = 0.0;
          rec_ssthresh = 0.0;
          rec_pacing = 0.0;
        };
      next_seq = 0;
      snd_una = 0;
      dupacks = 0;
      in_recovery = false;
      recovery_point = 0;
      hole_end = 0;
      sent_at = Array.make window 0.0;
      delivered_at_send = Array.make window 0;
      seg_flags = Bytes.make window '\000';
      mask = window - 1;
      retx_seqs = Array.make 16 0;
      retx_head = 0;
      retx_len = 0;
      next_pkt_id = 0;
      rto_timer = Netsim.Timer.create sim ignore;
      rcvd_total = 0;
      send_scheduled = false;
      wake_send = ignore;
      ack_ev = Cca.fresh_ack_event ();
      snap = Cca.fresh_snapshot ();
      rec_mode = "";
      bif_times = Array.make samples 0.0;
      bif_bytes = Array.make samples 0;
      bif_acked = Bytes.make samples '\000';
      bif_count = 0;
      retransmissions = 0;
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
