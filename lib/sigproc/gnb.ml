type class_model = { label : string; means : float array; vars : float array }
type model = { dims : int; models : class_model list }

let default_var_floor = 1e-6

let fit ?(var_floor = default_var_floor) classes =
  if classes = [] then invalid_arg "Gnb.fit: no classes";
  let dims =
    match classes with
    | (_, v :: _) :: _ -> Array.length v
    | _ -> invalid_arg "Gnb.fit: empty class"
  in
  let fit_class (label, vectors) =
    let n = List.length vectors in
    if n < 2 then invalid_arg ("Gnb.fit: class " ^ label ^ " needs >= 2 samples");
    List.iter
      (fun v -> if Array.length v <> dims then invalid_arg "Gnb.fit: dimension mismatch")
      vectors;
    let nf = float_of_int n in
    let means = Array.make dims 0.0 in
    List.iter (fun v -> Array.iteri (fun i x -> means.(i) <- means.(i) +. x) v) vectors;
    Array.iteri (fun i m -> means.(i) <- m /. nf) means;
    let vars = Array.make dims 0.0 in
    List.iter
      (fun v ->
        Array.iteri (fun i x -> vars.(i) <- vars.(i) +. ((x -. means.(i)) ** 2.0)) v)
      vectors;
    Array.iteri (fun i v -> vars.(i) <- Float.max var_floor (v /. nf)) vars;
    { label; means; vars }
  in
  { dims; models = List.map fit_class classes }

let log_likelihood cm x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. cm.means.(i) in
    acc := !acc -. (0.5 *. (log (2.0 *. Float.pi *. cm.vars.(i)) +. (d *. d /. cm.vars.(i))))
  done;
  !acc

let log_likelihoods m x =
  if Array.length x <> m.dims then invalid_arg "Gnb.log_likelihoods: dimension mismatch";
  m.models
  |> List.map (fun cm -> (cm.label, log_likelihood cm x))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let predict ?(margin = 2.0) m x =
  match log_likelihoods m x with
  | [] -> None
  | [ (label, _) ] -> Some label
  | (best, lb) :: (_, runner_up) :: _ -> if lb -. runner_up < margin then None else Some best

let class_stats m label =
  match List.find_opt (fun c -> c.label = label) m.models with
  | None -> raise Not_found
  | Some cm -> Array.init m.dims (fun i -> (cm.means.(i), sqrt cm.vars.(i)))
