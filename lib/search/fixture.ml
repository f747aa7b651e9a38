let schema_version = 1
let kind = "nebby_adversarial"

type verdict_class = Misclassified | Margin_collapse | Typed_failure | Correct

let class_label = function
  | Misclassified -> "misclassified"
  | Margin_collapse -> "margin_collapse"
  | Typed_failure -> "typed_failure"
  | Correct -> "correct"

let class_of_label = function
  | "misclassified" -> Ok Misclassified
  | "margin_collapse" -> Ok Margin_collapse
  | "typed_failure" -> Ok Typed_failure
  | "correct" -> Ok Correct
  | s -> Error (Printf.sprintf "unknown verdict class %S" s)

type t = {
  version : int;
  name : string;
  genome : Genome.t;
  expected : string;
  got : string;
  verdict_class : verdict_class;
  confidence : float;
  margin : float;
  failures : string list;
  signature : string;
  flight_kinds : (string * int) list;
  training_runs : int;
  training_quic_runs : int;
  training_seed : int;
  max_attempts : int;
  confidence_floor : float;
  margin_floor : float;
  search_seed : int;
  search_budget : int;
  found_at : int;
  minimize_steps : int;
  original_specs : int;
}

let make ~name ~genome ~got ~verdict_class ~confidence ~margin ~failures ~signature
    ~flight_kinds ~training_runs ~training_quic_runs ~training_seed ~max_attempts
    ~confidence_floor ~margin_floor ~search_seed ~search_budget ~found_at ~minimize_steps
    ~original_specs =
  if verdict_class = Correct then
    invalid_arg "Fixture.make: a correct verdict is not a counterexample";
  (match Genome.validate genome with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Fixture.make: invalid genome: %s" e));
  {
    version = schema_version;
    name;
    genome;
    expected = genome.Genome.cca;
    got;
    verdict_class;
    confidence;
    margin;
    failures;
    signature;
    flight_kinds;
    training_runs;
    training_quic_runs;
    training_seed;
    max_attempts;
    confidence_floor;
    margin_floor;
    search_seed;
    search_budget;
    found_at;
    minimize_steps;
    original_specs;
  }

(* ---- serialization ---- *)

let num_i i = Obs.Json.Num (float_of_int i)

let to_json t =
  Obs.Json.Obj
    (Obs.Versioned.fields ~kind ~version:t.version
    @ [
      ("name", Obs.Json.Str t.name);
      ("genome", Genome.to_json t.genome);
      ("expected", Obs.Json.Str t.expected);
      ("got", Obs.Json.Str t.got);
      ("class", Obs.Json.Str (class_label t.verdict_class));
      ("confidence", Obs.Json.Num t.confidence);
      ("margin", Obs.Json.Num t.margin);
      ("failures", Obs.Json.Arr (List.map (fun f -> Obs.Json.Str f) t.failures));
      ("signature", Obs.Json.Str t.signature);
      ( "flight_kinds",
        Obs.Json.Obj (List.map (fun (k, n) -> (k, num_i n)) t.flight_kinds) );
      ( "training",
        Obs.Json.Obj
          [
            ("runs", num_i t.training_runs);
            ("quic_runs", num_i t.training_quic_runs);
            ("seed", num_i t.training_seed);
          ] );
      ( "measurement",
        Obs.Json.Obj
          [
            ("max_attempts", num_i t.max_attempts);
            ("confidence_floor", Obs.Json.Num t.confidence_floor);
            ("margin_floor", Obs.Json.Num t.margin_floor);
          ] );
      ( "search",
        Obs.Json.Obj
          [
            ("seed", num_i t.search_seed);
            ("budget", num_i t.search_budget);
            ("found_at", num_i t.found_at);
            ("minimize_steps", num_i t.minimize_steps);
            ("original_specs", num_i t.original_specs);
          ] );
    ])

let to_string t = Obs.Json.to_string (to_json t) ^ "\n"

let ( let* ) r f = Result.bind r f

let jfield name j =
  match Obs.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let jstr name j =
  let* v = jfield name j in
  match Obs.Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let jfloat name j =
  let* v = jfield name j in
  match Obs.Json.to_float v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let jint name j =
  let* x = jfloat name j in
  Ok (int_of_float x)

let of_json j =
  let* () =
    match Obs.Versioned.check ~kind ~version:schema_version j with
    | () -> Ok ()
    | exception Obs.Json.Parse_error e -> Error e
  in
  let* name = jstr "name" j in
  let* genome_json = jfield "genome" j in
  let* genome = Genome.of_json genome_json in
  let* expected = jstr "expected" j in
  let* got = jstr "got" j in
  let* cls = jstr "class" j in
  let* verdict_class = class_of_label cls in
  let* confidence = jfloat "confidence" j in
  let* margin = jfloat "margin" j in
  let* failures =
    let* v = jfield "failures" j in
    match Obs.Json.to_list v with
    | None -> Error "field \"failures\" is not an array"
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Obs.Json.to_str item with
          | Some s -> Ok (s :: acc)
          | None -> Error "non-string entry in \"failures\"")
        (Ok []) items
      |> Result.map List.rev
  in
  let* signature = jstr "signature" j in
  let* flight_kinds =
    let* v = jfield "flight_kinds" j in
    match v with
    | Obs.Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Obs.Json.to_float v with
          | Some n -> Ok ((k, int_of_float n) :: acc)
          | None -> Error "non-numeric entry in \"flight_kinds\"")
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "field \"flight_kinds\" is not an object"
  in
  let* training = jfield "training" j in
  let* training_runs = jint "runs" training in
  let* training_quic_runs = jint "quic_runs" training in
  let* training_seed = jint "seed" training in
  let* measurement = jfield "measurement" j in
  let* max_attempts = jint "max_attempts" measurement in
  let* confidence_floor = jfloat "confidence_floor" measurement in
  let* margin_floor = jfloat "margin_floor" measurement in
  let* search = jfield "search" j in
  let* search_seed = jint "seed" search in
  let* search_budget = jint "budget" search in
  let* found_at = jint "found_at" search in
  let* minimize_steps = jint "minimize_steps" search in
  let* original_specs = jint "original_specs" search in
  Ok
    {
      version = schema_version;
      name;
      genome;
      expected;
      got;
      verdict_class;
      confidence;
      margin;
      failures;
      signature;
      flight_kinds;
      training_runs;
      training_quic_runs;
      training_seed;
      max_attempts;
      confidence_floor;
      margin_floor;
      search_seed;
      search_budget;
      found_at;
      minimize_steps;
      original_specs;
    }

let of_string s =
  match Obs.Json.of_string s with
  | exception Obs.Json.Parse_error e -> Error (Printf.sprintf "fixture parse error: %s" e)
  | j -> of_json j

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> of_string contents

let rec mkdirs dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save ~dir t =
  mkdirs dir;
  let path = Filename.concat dir (t.name ^ ".json") in
  Obs.Versioned.atomic_write path (fun oc -> output_string oc (to_string t));
  path
