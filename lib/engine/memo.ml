(* Single-flight memo: a cold key is computed by exactly one caller while
   concurrent callers for the same key park on the condition variable and
   wake with the published value. The compute itself still runs outside
   the lock, so independent keys never serialize behind each other. *)

type 'v entry = Ready of 'v | In_flight

type ('k, 'v) t = {
  table : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  published : Condition.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(size = 256) () =
  {
    table = Hashtbl.create size;
    lock = Mutex.create ();
    published = Condition.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (Ready v) -> Some v
      | Some In_flight | None -> None)

let record armed_counter counter =
  Atomic.incr counter;
  Obs.Metrics.bump armed_counter

let find_or_compute t key f =
  Mutex.lock t.lock;
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready v) ->
      Mutex.unlock t.lock;
      (* waiters that parked behind an in-flight compute count as hits:
         they replay the computer's value, and every lookup counts exactly
         once, so hits + misses = lookups always holds *)
      record "engine.memo.hits" t.hits;
      v
    | Some In_flight ->
      Condition.wait t.published t.lock;
      await ()
    | None ->
      Hashtbl.replace t.table key In_flight;
      Mutex.unlock t.lock;
      record "engine.memo.misses" t.misses;
      (match f () with
      | v ->
        with_lock t (fun () ->
            Hashtbl.replace t.table key (Ready v);
            Condition.broadcast t.published);
        v
      | exception e ->
        (* withdraw the claim so a parked waiter can retry the compute *)
        with_lock t (fun () ->
            Hashtbl.remove t.table key;
            Condition.broadcast t.published);
        raise e)
  in
  await ()

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

let length t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ e n -> match e with Ready _ -> n + 1 | In_flight -> n)
        t.table 0)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      (* waiters parked on a cleared in-flight key re-check, find nothing,
         and become the computer themselves *)
      Condition.broadcast t.published);
  Atomic.set t.hits 0;
  Atomic.set t.misses 0
