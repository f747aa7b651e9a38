(* The flight recorder: a fixed-capacity ring of typed data-plane events,
   always on and cheap enough to leave on during a census. Storage is
   struct-of-arrays (one unboxed float array per numeric slot, int array
   for tags) so the steady-state record path allocates nothing; the only
   allocation is for the rare string payloads, which are shared constants
   (CCA names, fault families) at every call site that fires per packet.

   All state is domain-local: a pool worker records into its own ring
   (Collector hands it only the enabled flag), and every reader of a ring
   runs in the domain that recorded it. *)

type kind =
  | Enqueue
  | Drop
  | Fault
  | Cca_state
  | Bif
  | Stage
  | Stall
  | Retx
  | Serve

(* A kind's ring tag is its position here, which also indexes its
   stable dump label. *)
let kinds = [| Enqueue; Drop; Fault; Cca_state; Bif; Stage; Stall; Retx; Serve |]

let labels =
  [| "enqueue"; "drop"; "fault"; "cca_state"; "bif"; "stage"; "stall"; "retx"; "serve" |]

let kind_tag = function
  | Enqueue -> 0
  | Drop -> 1
  | Fault -> 2
  | Cca_state -> 3
  | Bif -> 4
  | Stage -> 5
  | Stall -> 6
  | Retx -> 7
  | Serve -> 8

let kind_of_tag tag = kinds.(tag)
let kind_label kind = labels.(kind_tag kind)
let kind_of_label label = Option.map kind_of_tag (Array.find_index (String.equal label) labels)

type event = {
  seq : int;  (* monotone insertion index within the recording domain *)
  run : int;  (* simulation-run id: virtual time restarts at each run *)
  time : float;  (* virtual (simulated) seconds within the run *)
  kind : kind;
  a : float;
  b : float;
  c : float;
  detail : string;
  extra : string;
}

let default_capacity = 16384

type state = {
  level : Runtime.level_cell;
      (* the domain's detail level, cached here so the per-event gate is
         one DLS lookup (this record) plus a field load, not two *)
  mutable enabled : bool;
  mutable capacity : int;
  mutable next_seq : int;
  mutable pos : int;  (* next_seq mod capacity, kept by wrapping: the hot
                         path never pays an integer division *)
  mutable run : int;
  (* parallel ring arrays, indexed by seq mod capacity; the live slots
     are seqs [max 0 (next_seq - capacity), next_seq) *)
  mutable e_run : int array;
  mutable e_tag : int array;
  mutable e_time : float array;
  mutable e_a : float array;
  mutable e_b : float array;
  mutable e_c : float array;
  mutable e_detail : string array;
  mutable e_extra : string array;
  enqueued : Metrics.hot;
}

let fresh capacity =
  {
    level = Runtime.level_cell ();
    enabled = true;
    capacity;
    next_seq = 0;
    pos = 0;
    run = 0;
    e_run = Array.make capacity 0;
    e_tag = Array.make capacity 0;
    e_time = Array.make capacity 0.0;
    e_a = Array.make capacity 0.0;
    e_b = Array.make capacity 0.0;
    e_c = Array.make capacity 0.0;
    e_detail = Array.make capacity "";
    e_extra = Array.make capacity "";
    enqueued = Metrics.hot "netsim.link.enqueued";
  }

let key = Domain.DLS.new_key (fun () -> fresh default_capacity)
let state () = Domain.DLS.get key

let enabled () = (state ()).enabled
let set_enabled on = (state ()).enabled <- on
let capacity () = (state ()).capacity

let clear () =
  let s = state () in
  s.next_seq <- 0;
  s.pos <- 0;
  s.run <- 0

let set_capacity n =
  let n = max 16 n in
  let s = state () in
  let enabled = s.enabled in
  let replacement = fresh n in
  replacement.enabled <- enabled;
  Domain.DLS.set key replacement

let new_run () =
  let s = state () in
  s.run <- s.run + 1;
  s.run

let mark () = (state ()).next_seq

(* The shared record path. [detail]/[extra] default to "" so per-packet
   kinds pass only floats and the ring write stays allocation-free. The
   string stores are guarded by physical equality: the high-volume kinds
   push the same shared constants every time, so after the first lap the
   slot already holds the value and the GC write barrier is skipped.
   Inlined, so a float computed by the caller is stored without being
   boxed first. *)
let[@inline] push s kind ~time ~a ~b ~c ~detail ~extra =
  let i = s.pos in
  s.e_run.(i) <- s.run;
  s.e_tag.(i) <- kind_tag kind;
  s.e_time.(i) <- time;
  s.e_a.(i) <- a;
  s.e_b.(i) <- b;
  s.e_c.(i) <- c;
  if s.e_detail.(i) != detail then s.e_detail.(i) <- detail;
  if s.e_extra.(i) != extra then s.e_extra.(i) <- extra;
  s.next_seq <- s.next_seq + 1;
  let p = i + 1 in
  s.pos <- (if p = s.capacity then 0 else p)

(* Detail-level gates: Quiet keeps only rare anomalies (drops, faults,
   stalls, retransmissions, stage marks); Normal adds CCA state and a
   dump's ACK-clock BiF rows; Debug adds enqueues and every BiF row. *)
let want_cca_state () =
  let s = state () in
  s.enabled && s.level.Runtime.current <> Runtime.Quiet

(* The hot-path recorders below are the whole record of their
   occurrence: each writes the ring (at its detail level) and bumps the
   occurrence's counter when the runtime is armed, so the call site makes
   no second call. *)
let enqueue ~time ~size ~queue_bytes =
  let s = state () in
  if s.enabled && s.level.Runtime.current = Runtime.Debug then
    push s Enqueue ~time ~a:(float_of_int size) ~b:(float_of_int queue_bytes)
      ~c:0.0 ~detail:"" ~extra:"";
  Metrics.tick s.enqueued

let drop ~time ~size ~queue_bytes =
  let s = state () in
  if s.enabled then
    push s Drop ~time ~a:(float_of_int size) ~b:(float_of_int queue_bytes) ~c:0.0
      ~detail:"" ~extra:"";
  Metrics.bump "netsim.link.drops"

let path_fault ~time ~family ~detail =
  let s = state () in
  if s.enabled then push s Fault ~time ~a:0.0 ~b:0.0 ~c:0.0 ~detail:family ~extra:detail

let fault ~time ~family ~detail =
  path_fault ~time ~family ~detail;
  Metrics.bump "faults.injected"

type cca_reading = {
  mutable snap_cwnd : float;
  mutable snap_ssthresh : float;
  mutable snap_pacing : float;
}

let cca_state ~time ~cca ~mode r =
  if want_cca_state () then
    push (state ()) Cca_state ~time ~a:r.snap_cwnd ~b:r.snap_pacing ~c:r.snap_ssthresh
      ~detail:cca ~extra:mode

let stage ~time ~name =
  let s = state () in
  if s.enabled then push s Stage ~time ~a:0.0 ~b:0.0 ~c:0.0 ~detail:name ~extra:""

let stall ~time ~until =
  let s = state () in
  if s.enabled then push s Stall ~time ~a:until ~b:0.0 ~c:0.0 ~detail:"" ~extra:""

let retx ~time ~seq =
  let s = state () in
  if s.enabled then
    push s Retx ~time ~a:(float_of_int seq) ~b:0.0 ~c:0.0 ~detail:"" ~extra:"";
  Metrics.bump "transport.retransmissions"

(* Census-service lifecycle marks (job enqueues, overload rejections,
   journal recoveries, torn-tail drops, drains). Rare relative to the
   packet kinds, so they record at every detail level like faults. *)
let serve ~time ~event ~value =
  let s = state () in
  if s.enabled then push s Serve ~time ~a:value ~b:0.0 ~c:0.0 ~detail:event ~extra:""

type inflight_log = {
  log_run : int;
  log_times : float array;
  log_bytes : int array;
  log_acked : Bytes.t;
  log_count : int;
}

let no_rows =
  { log_run = 0; log_times = [||]; log_bytes = [||]; log_acked = Bytes.empty; log_count = 0 }

(* The oldest surviving seq is [next_seq - capacity] once the ring has
   wrapped. A run occupies one contiguous stretch of seqs (only [new_run]
   moves the run id, and [clear] empties the ring), so the runs are walked
   newest first: one pass over a run's columns finds its last time, a
   second builds only its in-window events (and the carried reading),
   after its BiF rows (prepended first, so they follow). A run whose times
   are all -inf or NaN has no last time and keeps every event. Slots are
   walked down from [pos] with a wrapping index, so no pass divides. *)
let snapshot ?(since = 0) ?(window_s = infinity) ?(bif = []) () =
  let s = state () in
  let level = s.level.Runtime.current in
  let bif = if s.enabled && level <> Runtime.Quiet then bif else [] in
  (* the newest row at or below [i] the level admits, or -1 *)
  let rec admitted log i =
    if i < 0 || level = Runtime.Debug || Bytes.get log.log_acked i <> '\000' then i
    else admitted log (i - 1)
  in
  let from = max since (max 0 (s.next_seq - s.capacity)) in
  let last_slot = s.capacity - 1 in
  let[@inline] prev i = if i = 0 then last_slot else i - 1 in
  let out = ref [] in
  let hi = ref (s.next_seq - 1) and hi_slot = ref (prev s.pos) in
  while !hi >= from do
    let run = s.e_run.(!hi_slot) in
    let lo = ref !hi and lo_slot = ref !hi_slot and last = ref neg_infinity in
    while !lo >= from && s.e_run.(!lo_slot) = run do
      let t = s.e_time.(!lo_slot) in
      if t > !last then last := t;
      decr lo;
      lo_slot := prev !lo_slot
    done;
    let log = Option.value ~default:no_rows (List.find_opt (fun l -> l.log_run = run) bif) in
    let row = ref (admitted log (log.log_count - 1)) in
    if !row >= 0 then last := Float.max !last log.log_times.(!row);
    let keep_all = window_s = infinity || !last = neg_infinity in
    let cut = !last -. window_s in
    while !row >= 0 && (keep_all || log.log_times.(!row) >= cut) do
      let i = !row and a = float_of_int log.log_bytes.(!row) in
      out := { seq = i; run; time = log.log_times.(i); kind = Bif; a; b = 0.0; c = 0.0;
               detail = ""; extra = "" } :: !out;
      row := admitted log (i - 1)
    done;
    let i = ref !hi_slot and carried = ref false in
    for q = !hi downto !lo + 1 do
      let time = s.e_time.(!i) in
      let in_window = keep_all || time >= cut in
      let carry = (not (in_window || !carried)) && s.e_tag.(!i) = kind_tag Cca_state in
      if carry then carried := true;
      if in_window || carry then
        out :=
          {
            seq = q;
            run;
            time;
            kind = kind_of_tag s.e_tag.(!i);
            a = s.e_a.(!i);
            b = s.e_b.(!i);
            c = s.e_c.(!i);
            detail = s.e_detail.(!i);
            extra = s.e_extra.(!i);
          }
          :: !out;
      i := prev !i
    done;
    hi := !lo;
    hi_slot := !lo_slot
  done;
  !out

(* dumps ------------------------------------------------------------------ *)

let schema_version = 1

type dump = {
  version : int;
  subject : string;
  trigger : string;
  attempt : int;
  window_s : float;
  events : event list;
}

let make_dump ~subject ~trigger ~attempt ~window_s events =
  { version = schema_version; subject; trigger; attempt; window_s; events }

let capture ~subject ~trigger ~attempt ?since ~window_s ~bif () =
  make_dump ~subject ~trigger ~attempt ~window_s (snapshot ?since ~window_s ~bif ())

let event_to_json e =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int e.seq));
      ("run", Json.Num (float_of_int e.run));
      ("t", Json.Num e.time);
      ("k", Json.Str (kind_label e.kind));
      ("a", Json.Num e.a);
      ("b", Json.Num e.b);
      ("c", Json.Num e.c);
      ("d", Json.Str e.detail);
      ("x", Json.Str e.extra);
    ]

let header_to_json d =
  Json.Obj
    (Versioned.fields ~kind:"flight_dump" ~version:d.version
    @ [
        ("subject", Json.Str d.subject);
        ("trigger", Json.Str d.trigger);
        ("attempt", Json.Num (float_of_int d.attempt));
        ("window_s", Json.Num d.window_s);
        ("events", Json.Num (float_of_int (List.length d.events)));
      ])

(* JSONL: a header line, then one line per event, oldest first. The field
   order is fixed and numbers go through [Json.number_to_string], so
   serialize . parse . serialize is byte-identical. *)
let dump_to_string d =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string (header_to_json d));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    d.events;
  Buffer.contents buf

let ctx = "flight dump"
let get_str = Json.get_str ctx
let get_num = Json.get_num ctx

let event_of_json j =
  {
    seq = Json.get_int ctx "seq" j;
    run = Json.get_int ctx "run" j;
    time = get_num "t" j;
    kind =
      (match kind_of_label (get_str "k" j) with
      | Some k -> k
      | None -> Json.shape_error ctx "unknown event kind");
    a = get_num "a" j;
    b = get_num "b" j;
    c = get_num "c" j;
    detail = get_str "d" j;
    extra = get_str "x" j;
  }

let dump_of_string s =
  match Versioned.lines s with
  | [] -> Json.shape_error ctx "empty dump"
  | header :: rest ->
    let h = Json.of_string header in
    Versioned.check ~kind:"flight_dump" ~version:schema_version h;
    {
      version = schema_version;
      subject = get_str "subject" h;
      trigger = get_str "trigger" h;
      attempt = Json.get_int ctx "attempt" h;
      window_s = get_num "window_s" h;
      events = List.map (fun line -> event_of_json (Json.of_string line)) rest;
    }
