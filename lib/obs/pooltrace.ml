(* Pool task-lifecycle tracing. See pooltrace.mli for the contract.

   The recording state is one DLS record per domain, the Flight shape:
   the per-task gate is a single DLS lookup plus a field load, and the
   disabled path never reads the clock. Workers inherit the caller's
   absolute origin so every stamp in a trace shares one timebase even
   though each domain records into its own buffer. *)

type task = {
  index : int;
  shard : int;
  worker : int;
  stolen : bool;
  t_submit : float;
  t_start : float;
  t_finish : float;
}

type t = { jobs : int; workers : int; tasks : task list }

type state = {
  mutable enabled : bool;
  mutable origin : float;  (* absolute wall clock; 0.0 = not yet stamped *)
  mutable jobs : int;
  mutable workers : int;
  mutable tasks : task list;  (* reverse insertion order *)
}

let key =
  Domain.DLS.new_key (fun () ->
      { enabled = false; origin = 0.0; jobs = 0; workers = 0; tasks = [] })

let state () = Domain.DLS.get key

let enabled () = (state ()).enabled
let set_enabled on = (state ()).enabled <- on

let on_run ~jobs ~workers =
  let s = state () in
  if s.origin = 0.0 then s.origin <- Unix.gettimeofday ();
  s.jobs <- s.jobs + jobs;
  if workers > s.workers then s.workers <- workers;
  let t_submit = Unix.gettimeofday () -. s.origin in
  Flight.pool ~time:t_submit ~phase:"submit" ~a:(float_of_int jobs)
    ~b:(float_of_int workers) ~c:0.0;
  (s.origin, t_submit)

let import ~origin =
  let s = state () in
  s.enabled <- true;
  s.origin <- origin

let record ~index ~shard ~worker ~stolen ~t_submit ~t0 ~t1 =
  let s = state () in
  if s.enabled then begin
    let t_start = t0 -. s.origin and t_finish = t1 -. s.origin in
    s.tasks <- { index; shard; worker; stolen; t_submit; t_start; t_finish } :: s.tasks;
    (* feed the domain-local registry histograms too: these drain/absorb
       at pool join like Metrics, so the caller ends up with the merged
       wait/run distributions without touching the raw trace *)
    Histogram.observe (Histogram.get "pool.queue_wait_us") ((t_start -. t_submit) *. 1e6);
    Histogram.observe (Histogram.get "pool.run_us") ((t_finish -. t_start) *. 1e6);
    let a = float_of_int index and b = float_of_int worker in
    let c = if stolen then 1.0 else 0.0 in
    Flight.pool ~time:t_start ~phase:"start" ~a ~b ~c;
    Flight.pool ~time:t_finish ~phase:"finish" ~a ~b ~c
  end

let drain_tasks () =
  let s = state () in
  let tasks = s.tasks in
  s.tasks <- [];
  tasks

let absorb_tasks tasks =
  let s = state () in
  s.tasks <- List.rev_append tasks s.tasks

let canonical tasks =
  List.sort
    (fun a b ->
      if a.t_start <> b.t_start then compare a.t_start b.t_start
      else compare a.index b.index)
    tasks

let drain () =
  let s = state () in
  let tr = { jobs = s.jobs; workers = s.workers; tasks = canonical s.tasks } in
  s.origin <- 0.0;
  s.jobs <- 0;
  s.workers <- 0;
  s.tasks <- [];
  tr

(* analysis ---------------------------------------------------------------- *)

type domain_stat = {
  d_worker : int;
  d_tasks : int;
  d_stolen : int;
  d_busy_s : float;
  d_busy_frac : float;
}

type summary = {
  s_jobs : int;
  s_workers : int;
  s_tasks : int;
  s_steals : int;
  s_span_s : float;
  s_wait_us : Histogram.t;
  s_run_us : Histogram.t;
  s_domains : domain_stat list;
}

let summarize (tr : t) =
  let wait = Histogram.create ~name:"pool.queue_wait_us" () in
  let run = Histogram.create ~name:"pool.run_us" () in
  let lo = ref infinity and hi = ref neg_infinity and steals = ref 0 in
  let per_domain = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Histogram.observe wait ((t.t_start -. t.t_submit) *. 1e6);
      Histogram.observe run ((t.t_finish -. t.t_start) *. 1e6);
      if t.t_submit < !lo then lo := t.t_submit;
      if t.t_finish > !hi then hi := t.t_finish;
      if t.stolen then incr steals;
      let tasks, stolen, busy =
        Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt per_domain t.worker)
      in
      Hashtbl.replace per_domain t.worker
        (tasks + 1, (stolen + if t.stolen then 1 else 0), busy +. t.t_finish -. t.t_start))
    tr.tasks;
  let span = if !hi > !lo then !hi -. !lo else 0.0 in
  let domains =
    Hashtbl.fold
      (fun w (tasks, stolen, busy) acc ->
        {
          d_worker = w;
          d_tasks = tasks;
          d_stolen = stolen;
          d_busy_s = busy;
          d_busy_frac = (if span > 0.0 then busy /. span else 0.0);
        }
        :: acc)
      per_domain []
    |> List.sort (fun a b -> compare a.d_worker b.d_worker)
  in
  {
    s_jobs = tr.jobs;
    s_workers = tr.workers;
    s_tasks = List.length tr.tasks;
    s_steals = !steals;
    s_span_s = span;
    s_wait_us = wait;
    s_run_us = run;
    s_domains = domains;
  }

let report tr =
  let s = summarize tr in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "pool report: %d task(s), %d submitted, %d worker(s), span %.4g s\n"
       s.s_tasks s.s_jobs s.s_workers s.s_span_s);
  let local = s.s_tasks - s.s_steals in
  let frac =
    if s.s_tasks = 0 then 0.0 else float_of_int s.s_steals /. float_of_int s.s_tasks
  in
  Buffer.add_string buf
    (Printf.sprintf "steals %d (%.1f%%), local pops %d\n\n" s.s_steals (100.0 *. frac)
       local);
  Buffer.add_string buf (Histogram.render [ s.s_wait_us; s.s_run_us ]);
  if s.s_domains <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "\n%-8s %8s %8s %10s %10s\n" "domain" "tasks" "stolen" "busy_s"
         "busy_frac");
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Printf.sprintf "%-8d %8d %8d %10.4g %10.3f\n" d.d_worker d.d_tasks d.d_stolen
             d.d_busy_s d.d_busy_frac))
      s.s_domains
  end;
  Buffer.contents buf

(* serialization ----------------------------------------------------------- *)

let schema_version = 1
let kind = "pool_trace"

let task_to_json t =
  Json.Obj
    [
      ("i", Json.Num (float_of_int t.index));
      ("s", Json.Num (float_of_int t.shard));
      ("w", Json.Num (float_of_int t.worker));
      ("st", Json.Bool t.stolen);
      ("sub", Json.Num t.t_submit);
      ("t0", Json.Num t.t_start);
      ("t1", Json.Num t.t_finish);
    ]

let to_string (tr : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          (Versioned.fields ~kind ~version:schema_version
          @ [
              ("jobs", Json.Num (float_of_int tr.jobs));
              ("workers", Json.Num (float_of_int tr.workers));
              ("tasks", Json.Num (float_of_int (List.length tr.tasks)));
            ])));
  Buffer.add_char buf '\n';
  List.iter
    (fun t ->
      Buffer.add_string buf (Json.to_string (task_to_json t));
      Buffer.add_char buf '\n')
    tr.tasks;
  Buffer.contents buf

let ctx = "pool trace"
let get_num = Json.get_num ctx
let get_int = Json.get_int ctx

let task_of_json j =
  {
    index = get_int "i" j;
    shard = get_int "s" j;
    worker = get_int "w" j;
    stolen =
      (match Json.field ctx "st" j with
      | Json.Bool b -> b
      | _ -> Json.shape_error ctx "field \"st\" is not a bool");
    t_submit = get_num "sub" j;
    t_start = get_num "t0" j;
    t_finish = get_num "t1" j;
  }

let of_string text =
  match Versioned.lines text with
  | [] -> Json.shape_error ctx "empty trace"
  | header :: rest ->
    let h = Json.of_string header in
    Versioned.check ~kind ~version:schema_version h;
    {
      jobs = get_int "jobs" h;
      workers = get_int "workers" h;
      tasks = List.map (fun line -> task_of_json (Json.of_string line)) rest;
    }

(* Chrome trace_event export: one complete span per task on the worker's
   track, preceded by thread-name metadata so the timeline reads
   "worker 0..n-1". Times are microseconds since the trace origin. *)
let to_chrome_string (tr : t) =
  let us x = Json.Num (x *. 1e6) in
  let meta =
    List.init (max 1 tr.workers) (fun w ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int w));
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "worker %d" w)) ]);
          ])
  in
  let spans =
    List.map
      (fun t ->
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "task %d" t.index));
            ("cat", Json.Str "pool");
            ("ph", Json.Str "X");
            ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int t.worker));
            ("ts", us t.t_start);
            ("dur", us (t.t_finish -. t.t_start));
            ( "args",
              Json.Obj
                [
                  ("shard", Json.Num (float_of_int t.shard));
                  ("stolen", Json.Bool t.stolen);
                  ("wait_us", Json.Num ((t.t_start -. t.t_submit) *. 1e6));
                ] );
          ])
      tr.tasks
  in
  Json.to_string (Json.Arr (meta @ spans))
