type 'a entry = { signature : string; fitness : float; payload : 'a }

type 'a t = {
  mutable rev_entries : 'a entry list;  (* newest first *)
  seen : (string, unit) Hashtbl.t;
}

let create () = { rev_entries = []; seen = Hashtbl.create 64 }

let size t = Hashtbl.length t.seen

let add t ~signature ~fitness payload =
  if Hashtbl.mem t.seen signature then false
  else begin
    Hashtbl.add t.seen signature ();
    t.rev_entries <- { signature; fitness; payload } :: t.rev_entries;
    true
  end

let entries t =
  List.rev_map (fun e -> (e.signature, e.fitness, e.payload)) t.rev_entries

(* floor weight so a zero-fitness bucket still breeds occasionally *)
let weight e = 0.1 +. Float.max 0.0 e.fitness

let pick t ~rng =
  match t.rev_entries with
  | [] -> None
  | rev ->
    let es = List.rev rev in
    let total = List.fold_left (fun acc e -> acc +. weight e) 0.0 es in
    let target = Netsim.Rng.uniform rng 0.0 total in
    let rec go acc = function
      | [ e ] -> Some e.payload
      | e :: rest ->
        let acc = acc +. weight e in
        if target < acc then Some e.payload else go acc rest
      | [] -> None
    in
    go 0.0 es
