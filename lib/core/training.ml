type profile_model = {
  profile_name : string;
  model : Sigproc.Gnb.model;
  scaler : (float * float) array;
  thresholds : (string * float) list;
}

type bundle = {
  joint : Sigproc.Gnb.model;
  joint_scaler : (float * float) array;
  joint_thresholds : (string * float) list;
  per_profile : profile_model list;
}

type control = {
  profiles : Profile.t list;
  tcp : bundle;
  quic : bundle;
  samples : (string * float array list) list;
  degree_hist : (string * int array) list;
  fingerprint : string;
}

let vantage_count = 5 (* the paper's Ohio/Paris/Mumbai/Singapore/Sao-Paulo set *)
let tcp_threshold_slack = 3.0
(* QUIC implementations are expected to deviate from the kernel references
   (the paper classifies non-conformant variants too), so the likelihood
   floor is more forgiving *)
let quic_threshold_slack = 28.0
let gnb_var_floor = 0.02

(* Vantage points differ in how noisy the wide-area path is. *)
let vantage_noise i =
  match i mod vantage_count with
  | 0 -> Netsim.Path.quiet
  | 1 | 2 -> Netsim.Path.mild
  | 3 -> Netsim.Path.scale Netsim.Path.mild 1.5
  | _ -> Netsim.Path.scale Netsim.Path.mild 2.0

let percentile q xs =
  match xs with
  | [] -> neg_infinity
  | _ ->
    let arr = Array.of_list xs in
    Sigproc.Series.select (int_of_float (q *. float_of_int (Array.length arr - 1))) arr

let fit_scaler vectors =
  match vectors with
  | [] -> invalid_arg "Training.fit_scaler: no data"
  | first :: _ ->
    let dims = Array.length first in
    let nf = float_of_int (List.length vectors) in
    Array.init dims (fun i ->
        let mean = List.fold_left (fun a v -> a +. v.(i)) 0.0 vectors /. nf in
        let var =
          List.fold_left (fun a v -> a +. ((v.(i) -. mean) ** 2.0)) 0.0 vectors /. nf
        in
        (mean, Float.max 1e-6 (sqrt var)))

let apply_scaler scaler vec =
  Array.mapi
    (fun i x ->
      let mean, std = scaler.(i) in
      (x -. mean) /. std)
    vec

let bundle_for control proto =
  match proto with Netsim.Packet.Tcp -> control.tcp | Netsim.Packet.Quic -> control.quic

(* Fit model + scaler + per-class likelihood floors from labeled vectors. *)
let fit_model_bundle ?(slack = tcp_threshold_slack) labeled =
  let usable = List.filter (fun (_, vecs) -> List.length vecs >= 2) labeled in
  let scaler = fit_scaler (List.concat_map snd usable) in
  let standardized =
    List.map (fun (name, vecs) -> (name, List.map (apply_scaler scaler) vecs)) usable
  in
  let model = Sigproc.Gnb.fit ~var_floor:gnb_var_floor standardized in
  let thresholds =
    List.map
      (fun (name, vecs) ->
        let own =
          List.filter_map
            (fun v -> List.assoc_opt name (Sigproc.Gnb.log_likelihoods model v))
            vecs
        in
        (name, percentile 0.05 own -. slack))
      standardized
  in
  (model, scaler, thresholds)

(* A content fingerprint of the trained model, for verdict keys: two
   controls that classify identically hash identically, and retraining
   with different runs/seeds/profiles changes the digest. The scalers and
   thresholds are a complete proxy for the fitted Gaussians here: they are
   derived from the same sample statistics the models are. *)
let digest ~profiles ~tcp ~quic ~degree_hist =
  let buf = Buffer.create 4096 in
  let num x = Buffer.add_string buf (Printf.sprintf "%.17g;" x) in
  let str s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  let bundle b =
    Array.iter
      (fun (mean, std) ->
        num mean;
        num std)
      b.joint_scaler;
    List.iter
      (fun (name, threshold) ->
        str name;
        num threshold)
      b.joint_thresholds;
    List.iter
      (fun pm ->
        str pm.profile_name;
        Array.iter
          (fun (mean, std) ->
            num mean;
            num std)
          pm.scaler;
        List.iter
          (fun (name, threshold) ->
            str name;
            num threshold)
          pm.thresholds)
      b.per_profile
  in
  List.iter (fun (p : Profile.t) -> str p.Profile.name) profiles;
  bundle tcp;
  bundle quic;
  List.iter
    (fun (name, hist) ->
      str name;
      Array.iter (fun c -> num (float_of_int c)) hist)
    degree_hist;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type raw = {
  mutable joint_vecs : float array list;
  profile_vecs : float array list array;
}

(* One (proto, CCA, run) training cell, measured under every profile
   with the same vantage noise: per profile, the TCP per-segment
   (feature vector, best-fit degree) pairs in segment order, and the
   trace vector. A cell is a pure function of its arguments, so cells
   run on any worker in any order. *)
let measure_cell ~seed ~profiles ~page_bytes ~transform (proto, cca_name, run) =
  let noise = vantage_noise run in
  let per_profile =
    List.mapi
      (fun p_idx profile ->
        let proto_off = match proto with Netsim.Packet.Tcp -> 0 | Netsim.Packet.Quic -> 50000 in
        let run_seed = seed + proto_off + (1000 * p_idx) + (17 * run) + Hashtbl.hash cca_name in
        let result =
          Testbed.simulate ~seed:run_seed ~noise ~proto ~profile
            ~make_cca:(Cca.Registry.create cca_name) ~page_bytes ()
        in
        let rtt = Profile.rtt profile in
        let bif = transform ~rtt (Bif.estimate result.trace) in
        let prepared = Pipeline.prepare ~rtt bif in
        let segments =
          if proto = Netsim.Packet.Tcp then
            List.filter_map
              (fun seg ->
                Option.map
                  (fun f -> (Features.vector ~rtt:prepared.Pipeline.rtt f, f.Features.degree))
                  (Features.of_segment seg))
              prepared.Pipeline.segments
          else []
        in
        (segments, Features.trace_vector prepared))
      profiles
  in
  Obs.Metrics.bump "training.runs";
  per_profile

let train ?(runs_per_cca = 15) ?(quic_runs_per_cca = 8) ?(profiles = Profile.default_pair)
    ?(seed = 7) ?(page_bytes = Profile.default_page_bytes) ?(transform = fun ~rtt:_ pts -> pts)
    ?jobs () =
  Obs.Span.with_ ~name:"train" @@ fun () ->
  (* For each CCA and run, measure under every profile with the same vantage
     noise; the concatenation of the per-profile trace vectors is the joint
     training sample, mirroring how a measurement runs both profiles. TCP
     and QUIC get separate models: the encrypted estimator shapes traces
     slightly differently (the refinement §5 of the paper suggests). The
     independent (proto, CCA, run) cells fan out through the pool and are
     folded back in (proto, CCA, run) order, so the control is
     byte-identical at any [jobs]. *)
  let cells proto runs =
    List.concat_map
      (fun name -> List.init runs (fun run -> (proto, name, run)))
      Cca.Registry.loss_based
  in
  let grid =
    Array.of_list (cells Netsim.Packet.Tcp runs_per_cca @ cells Netsim.Packet.Quic quic_runs_per_cca)
  in
  let measured = Engine.Pool.map ?jobs (measure_cell ~seed ~profiles ~page_bytes ~transform) grid in
  let seg_samples = Hashtbl.create 16 in
  let degree_tally = Hashtbl.create 16 in
  (* fold the cells of one (proto, CCA) back in run order *)
  let collect proto cca_name =
    let raw = { joint_vecs = []; profile_vecs = Array.make (List.length profiles) [] } in
    Array.iteri
      (fun i per_profile ->
        let p, name, _ = grid.(i) in
        if p = proto && name = cca_name then begin
          List.iteri
            (fun p_idx (segments, vec) ->
              List.iter
                (fun (vector, degree) ->
                  let prev = Option.value ~default:[] (Hashtbl.find_opt seg_samples cca_name) in
                  Hashtbl.replace seg_samples cca_name (vector :: prev);
                  let hist =
                    match Hashtbl.find_opt degree_tally cca_name with
                    | Some h -> h
                    | None ->
                      let h = Array.make 3 0 in
                      Hashtbl.replace degree_tally cca_name h;
                      h
                  in
                  hist.(degree - 1) <- hist.(degree - 1) + 1)
                segments;
              Option.iter
                (fun vec -> raw.profile_vecs.(p_idx) <- vec :: raw.profile_vecs.(p_idx))
                vec)
            per_profile;
          let vecs = List.map snd per_profile in
          if List.for_all Option.is_some vecs then
            raw.joint_vecs <- Array.concat (List.map Option.get vecs) :: raw.joint_vecs
        end)
      measured;
    raw
  in
  let build proto =
    let slack =
      match proto with
      | Netsim.Packet.Tcp -> tcp_threshold_slack
      | Netsim.Packet.Quic -> quic_threshold_slack
    in
    let per_cca = List.map (fun name -> (name, collect proto name)) Cca.Registry.loss_based in
    let joint, joint_scaler, joint_thresholds =
      fit_model_bundle ~slack (List.map (fun (name, raw) -> (name, raw.joint_vecs)) per_cca)
    in
    let per_profile =
      List.mapi
        (fun p_idx (profile : Profile.t) ->
          let labeled =
            List.map (fun (name, raw) -> (name, raw.profile_vecs.(p_idx))) per_cca
          in
          let model, scaler, thresholds = fit_model_bundle ~slack labeled in
          { profile_name = profile.Profile.name; model; scaler; thresholds })
        profiles
    in
    { joint; joint_scaler; joint_thresholds; per_profile }
  in
  let tcp = build Netsim.Packet.Tcp in
  let quic = build Netsim.Packet.Quic in
  let degree_hist =
    List.map
      (fun name ->
        (name, Option.value ~default:(Array.make 3 0) (Hashtbl.find_opt degree_tally name)))
      Cca.Registry.loss_based
  in
  {
    profiles;
    tcp;
    quic;
    samples =
      List.map
        (fun name -> (name, List.rev (Option.value ~default:[] (Hashtbl.find_opt seg_samples name))))
        Cca.Registry.loss_based;
    degree_hist;
    fingerprint = digest ~profiles ~tcp ~quic ~degree_hist;
  }

let cached = lazy (train ())
let default () = Lazy.force cached
let fingerprint control = control.fingerprint

let dominant_degree control cca =
  match List.assoc_opt cca control.degree_hist with
  | None -> 0
  | Some hist ->
    let best = ref 0 in
    Array.iteri (fun i count -> if count > hist.(!best) then best := i) hist;
    !best + 1
