(* Deployment-drift ledger + CUSUM change-point detector. See
   drift.mli; the detector's one structural subtlety is the per-class
   per-direction arm/fire/drain cycle: an alarm fires once when the
   CUSUM crosses the threshold and the class stays suppressed in that
   direction until the CUSUM drains back to zero, so a migration that
   keeps running for many epochs emits exactly one event. *)

let schema_version = 1
let kind = "nebby_drift_ledger"

type point = {
  epoch : int;
  hosts : int;
  shares : (string * float) list;
  unknown_share : float;
  mean_confidence : float;
  mean_margin : float;
  timeouts : int;
}

type ledger = { version : int; subject : string; points : point list }

let norm_point p =
  { p with shares = List.sort (fun (a, _) (b, _) -> compare a b) p.shares }

let make ~subject points =
  {
    version = schema_version;
    subject;
    points =
      List.sort (fun a b -> compare a.epoch b.epoch) (List.map norm_point points);
  }

let classes l =
  List.sort_uniq compare
    (List.concat_map (fun p -> List.map fst p.shares) l.points)

let share p cls = Option.value ~default:0.0 (List.assoc_opt cls p.shares)

(* detection --------------------------------------------------------------- *)

type params = { allowance : float; threshold : float; min_hosts : int }

(* tuned so a Table-11-style migration (several share points per epoch)
   alarms within 2–3 epochs of onset while per-epoch measurement jitter
   under one point per epoch never accumulates *)
let default_params = { allowance = 1.0; threshold = 5.0; min_hosts = 1 }

type event =
  | Emerged of { class_ : string; epoch : int; rate_per_epoch : float }
  | Collapsed of { class_ : string; epoch : int; rate_per_epoch : float }
  | Migration of {
      from_ : string;
      to_ : string;
      epoch : int;
      rate_per_epoch : float;
    }

let event_epoch = function
  | Emerged { epoch; _ } | Collapsed { epoch; _ } | Migration { epoch; _ } -> epoch

let event_label = function
  | Emerged { class_; epoch; rate_per_epoch } ->
    Printf.sprintf "emerged %s @e%d (%.3g pts/epoch)" class_ epoch rate_per_epoch
  | Collapsed { class_; epoch; rate_per_epoch } ->
    Printf.sprintf "collapsed %s @e%d (%.3g pts/epoch)" class_ epoch rate_per_epoch
  | Migration { from_; to_; epoch; rate_per_epoch } ->
    Printf.sprintf "migration %s->%s @e%d (%.3g pts/epoch)" from_ to_ epoch
      rate_per_epoch

(* One direction of a class's CUSUM: [acc] accumulates max(0, acc +
   signed_delta - allowance); [start] remembers where the current
   accumulation began (for the reported rate); [active] suppresses
   re-alarms until the accumulator drains to zero. *)
type cusum = { mutable acc : float; mutable start : int; mutable active : bool }

type alarm = { a_idx : int; a_epoch : int; a_up : bool; a_class : string; a_rate : float }

let detect ?(params = default_params) l =
  let pts =
    Array.of_list (List.filter (fun p -> p.hosts >= params.min_hosts) l.points)
  in
  let n = Array.length pts in
  if n < 2 then []
  else begin
    let cls = List.filter (fun c -> c <> "Unclassified") (classes l) in
    let alarms = ref [] in
    List.iter
      (fun c ->
        let s i = share pts.(i) c in
        let up = { acc = 0.0; start = 0; active = false } in
        let down = { acc = 0.0; start = 0; active = false } in
        for i = 1 to n - 1 do
          let delta = s i -. s (i - 1) in
          let step cu ~signed =
            if cu.acc = 0.0 then cu.start <- i - 1;
            cu.acc <- Float.max 0.0 (cu.acc +. signed -. params.allowance);
            if cu.acc = 0.0 then cu.active <- false
          in
          step up ~signed:delta;
          step down ~signed:(-.delta);
          let fire cu ~a_up =
            if (not cu.active) && cu.acc > params.threshold then begin
              cu.active <- true;
              let de = pts.(i).epoch - pts.(cu.start).epoch in
              let moved = Float.abs (s i -. s cu.start) in
              alarms :=
                {
                  a_idx = i;
                  a_epoch = pts.(i).epoch;
                  a_up;
                  a_class = c;
                  a_rate = (if de > 0 then moved /. float_of_int de else moved);
                }
                :: !alarms
            end
          in
          fire up ~a_up:true;
          fire down ~a_up:false
        done)
      cls;
    (* pair co-firing up/down alarms epoch by epoch, largest movers first *)
    let by_rate a b =
      if a.a_rate <> b.a_rate then compare b.a_rate a.a_rate
      else compare a.a_class b.a_class
    in
    let events = ref [] in
    let idxs = List.sort_uniq compare (List.map (fun a -> a.a_idx) !alarms) in
    List.iter
      (fun i ->
        let here = List.filter (fun a -> a.a_idx = i) !alarms in
        let ups = List.sort by_rate (List.filter (fun a -> a.a_up) here) in
        let downs = List.sort by_rate (List.filter (fun a -> not a.a_up) here) in
        let rec pair ups downs =
          match (ups, downs) with
          | u :: ur, d :: dr ->
            events :=
              Migration
                {
                  from_ = d.a_class;
                  to_ = u.a_class;
                  epoch = u.a_epoch;
                  rate_per_epoch = (u.a_rate +. d.a_rate) /. 2.0;
                }
              :: !events;
            pair ur dr
          | u :: ur, [] ->
            events :=
              Emerged { class_ = u.a_class; epoch = u.a_epoch; rate_per_epoch = u.a_rate }
              :: !events;
            pair ur []
          | [], d :: dr ->
            events :=
              Collapsed
                { class_ = d.a_class; epoch = d.a_epoch; rate_per_epoch = d.a_rate }
              :: !events;
            pair [] dr
          | [], [] -> ()
        in
        pair ups downs)
      idxs;
    let rank = function Migration _ -> 0 | Emerged _ -> 1 | Collapsed _ -> 2 in
    let key = function
      | Migration { to_; _ } -> to_
      | Emerged { class_; _ } | Collapsed { class_; _ } -> class_
    in
    List.sort
      (fun a b ->
        if event_epoch a <> event_epoch b then compare (event_epoch a) (event_epoch b)
        else if rank a <> rank b then compare (rank a) (rank b)
        else compare (key a) (key b))
      !events
  end

(* serialization ----------------------------------------------------------- *)

let point_to_json p =
  Json.Obj
    [
      ("epoch", Json.Num (float_of_int p.epoch));
      ("hosts", Json.Num (float_of_int p.hosts));
      ( "shares",
        Json.Arr
          (List.map
             (fun (cls, pct) ->
               Json.Obj [ ("class", Json.Str cls); ("percent", Json.Num pct) ])
             p.shares) );
      ("unknown_share", Json.Num p.unknown_share);
      ("mean_confidence", Json.Num p.mean_confidence);
      ("mean_margin", Json.Num p.mean_margin);
      ("timeouts", Json.Num (float_of_int p.timeouts));
    ]

let to_json l =
  Json.Obj
    (Versioned.fields ~kind ~version:l.version
    @ [
        ("subject", Json.Str l.subject);
        ("points", Json.Arr (List.map point_to_json l.points));
      ])

let ctx = "drift"
let get_num = Json.get_num ctx
let get_int = Json.get_int ctx
let get_str = Json.get_str ctx

let point_of_json j =
  {
    epoch = get_int "epoch" j;
    hosts = get_int "hosts" j;
    shares =
      List.map
        (fun s -> (get_str "class" s, get_num "percent" s))
        (Json.get_arr ctx "shares" j);
    unknown_share = get_num "unknown_share" j;
    mean_confidence = get_num "mean_confidence" j;
    mean_margin = get_num "mean_margin" j;
    timeouts = get_int "timeouts" j;
  }

let of_json j =
  Versioned.check ~kind ~version:schema_version j;
  {
    version = schema_version;
    subject = get_str "subject" j;
    points = List.map point_of_json (Json.get_arr ctx "points" j);
  }

let event_to_json e =
  let base = [ ("kind", Json.Str "nebby_drift_event") ] in
  match e with
  | Emerged { class_; epoch; rate_per_epoch } ->
    Json.Obj
      (base
      @ [
          ("event", Json.Str "emerged");
          ("class", Json.Str class_);
          ("epoch", Json.Num (float_of_int epoch));
          ("rate_per_epoch", Json.Num rate_per_epoch);
        ])
  | Collapsed { class_; epoch; rate_per_epoch } ->
    Json.Obj
      (base
      @ [
          ("event", Json.Str "collapsed");
          ("class", Json.Str class_);
          ("epoch", Json.Num (float_of_int epoch));
          ("rate_per_epoch", Json.Num rate_per_epoch);
        ])
  | Migration { from_; to_; epoch; rate_per_epoch } ->
    Json.Obj
      (base
      @ [
          ("event", Json.Str "migration");
          ("from", Json.Str from_);
          ("to", Json.Str to_);
          ("epoch", Json.Num (float_of_int epoch));
          ("rate_per_epoch", Json.Num rate_per_epoch);
        ])

let event_of_json j =
  if Json.member "kind" j <> Some (Json.Str "nebby_drift_event") then
    Json.shape_error ctx "not a drift event";
  let epoch = get_int "epoch" j in
  let rate_per_epoch = get_num "rate_per_epoch" j in
  match get_str "event" j with
  | "emerged" -> Emerged { class_ = get_str "class" j; epoch; rate_per_epoch }
  | "collapsed" -> Collapsed { class_ = get_str "class" j; epoch; rate_per_epoch }
  | "migration" ->
    Migration { from_ = get_str "from" j; to_ = get_str "to" j; epoch; rate_per_epoch }
  | e -> Json.shape_error ctx ("unknown event " ^ e)

(* rendering --------------------------------------------------------------- *)

let render l events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "drift ledger: %s (%d epochs)\n" l.subject
                           (List.length l.points));
  if l.points <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-6s %6s %8s %7s %7s %8s  %s\n" "epoch" "hosts" "unknown%"
         "conf" "margin" "timeouts" "top shares");
    List.iter
      (fun p ->
        let top =
          List.sort
            (fun (ca, pa) (cb, pb) ->
              if pa <> pb then compare pb pa else compare ca cb)
            p.shares
        in
        let top =
          List.filteri (fun i _ -> i < 3) top
          |> List.map (fun (c, pct) -> Printf.sprintf "%s %.1f" c pct)
        in
        Buffer.add_string buf
          (Printf.sprintf "e%-5d %6d %8.1f %7.3f %7.3f %8d  %s\n" p.epoch p.hosts
             p.unknown_share p.mean_confidence p.mean_margin p.timeouts
             (String.concat ", " top)))
      l.points
  end;
  (match events with
  | [] -> Buffer.add_string buf "events: none\n"
  | es ->
    Buffer.add_string buf (Printf.sprintf "events: %d\n" (List.length es));
    List.iter (fun e -> Buffer.add_string buf ("  " ^ event_label e ^ "\n")) es);
  Buffer.contents buf
