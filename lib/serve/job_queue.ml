(* Bounded priority queue with explicit backpressure. The lock covers
   every field; pushes signal, close broadcasts. Admission telemetry
   (counters + gauge + flight events) fires inside the lock so the depth
   each event carries is the depth the decision saw. *)

type push_result = Accepted | Overloaded | Closed

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  buckets : 'a Queue.t array;  (* index = priority; 0 pops first *)
  high_water : int;
  mutable depth : int;
  mutable overloads : int;
  mutable closed : bool;
}

let create ?(levels = 2) ~high_water () =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    buckets = Array.init (max 1 levels) (fun _ -> Queue.create ());
    high_water = max 1 high_water;
    depth = 0;
    overloads = 0;
    closed = false;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let armed_set name v =
  if Obs.Runtime.armed () then Obs.Metrics.set (Obs.Metrics.gauge name) v

let push t ?prio ?(force = false) job =
  with_lock t (fun () ->
      if t.closed then Closed
      else if t.depth >= t.high_water && not force then begin
        t.overloads <- t.overloads + 1;
        Obs.Metrics.bump "serve.queue.overloaded";
        Obs.Flight.serve ~time:0.0 ~event:"overloaded" ~value:(float_of_int t.depth);
        Overloaded
      end
      else begin
        let levels = Array.length t.buckets in
        let prio =
          match prio with None -> levels - 1 | Some p -> max 0 (min (levels - 1) p)
        in
        Queue.push job t.buckets.(prio);
        t.depth <- t.depth + 1;
        Obs.Metrics.bump "serve.queue.enqueued";
        armed_set "serve.queue.depth" (float_of_int t.depth);
        Obs.Flight.serve ~time:0.0 ~event:"enqueue" ~value:(float_of_int t.depth);
        Condition.signal t.nonempty;
        Accepted
      end)

let pop_locked t =
  let rec scan i =
    if i = Array.length t.buckets then None
    else if Queue.is_empty t.buckets.(i) then scan (i + 1)
    else begin
      let job = Queue.pop t.buckets.(i) in
      t.depth <- t.depth - 1;
      armed_set "serve.queue.depth" (float_of_int t.depth);
      Some job
    end
  in
  scan 0

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        match pop_locked t with
        | Some job -> Some job
        | None ->
          if t.closed then None
          else begin
            Condition.wait t.nonempty t.lock;
            wait ()
          end
      in
      wait ())

let pop_batch t n =
  with_lock t (fun () ->
      let rec take k acc =
        if k = 0 then List.rev acc
        else match pop_locked t with None -> List.rev acc | Some j -> take (k - 1) (j :: acc)
      in
      take (max 0 n) [])

let depth t = with_lock t (fun () -> t.depth)

let depths t =
  with_lock t (fun () -> Array.to_list (Array.map Queue.length t.buckets))
let high_water t = t.high_water
let overloads t = with_lock t (fun () -> t.overloads)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
