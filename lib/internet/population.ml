(* Ground-truth deployment weights, seeded from Table 4 (Ohio column) with
   the AkamaiCC share of §4.3 carved out of the paper's Unknown mass. *)
let base_weights =
  [
    ("cubic", 41.0);
    ("bbr", 13.0);
    ("bbr2", 2.6);
    ("newreno", 9.2);
    ("bic", 3.5);
    ("htcp", 2.9);
    ("illinois", 3.6);
    ("vegas", 4.4);
    ("veno", 0.6);
    ("westwood", 1.0);
    ("scalable", 0.1);
    ("yeah", 0.6);
    ("akamai_cc", 7.0);
  ]

let draw_weighted rng weights =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  let x = Netsim.Rng.uniform rng 0.0 total in
  let rec pick acc = function
    | [ (name, _) ] -> name
    | (name, w) :: rest -> if x < acc +. w then name else pick (acc +. w) rest
    | [] -> "cubic"
  in
  pick 0.0 weights

type migration = { from_cca : string; to_cca : string; onset : int; rate : float }

let default_migration = { from_cca = "cubic"; to_cca = "bbr"; onset = 2; rate = 4.0 }

let migration_of_spec spec =
  match String.split_on_char ':' spec with
  | [ f; t; o; r ] -> (
    match (int_of_string_opt o, float_of_string_opt r) with
    | Some onset, Some rate when onset >= 0 && rate > 0.0 && f <> "" && t <> "" && f <> t
      ->
      Some { from_cca = f; to_cca = t; onset; rate }
    | _ -> None)
  | _ -> None

let migration_spec m =
  Printf.sprintf "%s:%s:%d:%g" m.from_cca m.to_cca m.onset m.rate

(* How many base-weight points of [from_cca] have converted by [epoch]:
   zero before onset, then [rate] points per epoch, saturating at the
   class's full base weight. *)
let converted_points m ~epoch =
  let w_from = Option.value ~default:0.0 (List.assoc_opt m.from_cca base_weights) in
  Float.min w_from (m.rate *. float_of_int (max 0 (epoch - m.onset + 1)))

let weights_at m ~epoch =
  let pts = converted_points m ~epoch in
  List.map
    (fun (cca, w) ->
      if cca = m.from_cca then (cca, w -. pts)
      else if cca = m.to_cca then (cca, w +. pts)
      else (cca, w))
    base_weights

(* generation -------------------------------------------------------------- *)

let generate_full ?(n = 20_000) ~seed () =
  let rng = Netsim.Rng.create seed in
  let make rank =
    let cca = draw_weighted rng base_weights in
    let cdn =
      if cca = "akamai_cc" then Website.Akamai
      else if Netsim.Rng.bool rng 0.18 then Website.Cloudflare
      else if Netsim.Rng.bool rng 0.25 then Website.Other_cdn
      else Website.Self_hosted
    in
    (* regional deployment differences (§4.2 finding 1): 13.6% of sites *)
    let deployments =
      let uniform = List.map (fun r -> (r, cca)) Region.all in
      if (cca = "bbr" || cca = "bbr2") && Netsim.Rng.bool rng 0.5 then
        (* the amazon.com pattern: CUBIC towards Mumbai and/or Sao Paulo *)
        List.map
          (fun (r, c) ->
            match r with
            | Region.Mumbai -> (r, "cubic")
            | Region.Sao_paulo -> (r, if Netsim.Rng.bool rng 0.7 then "cubic" else c)
            | Region.Ohio | Region.Paris | Region.Singapore -> (r, c))
          uniform
      else if Netsim.Rng.bool rng 0.066 then begin
        (* one region served by a different variant entirely *)
        let odd = List.nth Region.all (Netsim.Rng.int rng 5) in
        let other = draw_weighted rng base_weights in
        List.map (fun (r, c) -> if r = odd then (r, other) else (r, c)) uniform
      end
      else uniform
    in
    (* QUIC support concentrates on Cloudflare and big self-hosted sites *)
    let quic_prob =
      match cdn with
      | Website.Cloudflare -> 0.35
      | Website.Self_hosted -> 0.06
      | Website.Akamai -> 0.02
      | Website.Other_cdn -> 0.04
    in
    let quic = Netsim.Rng.bool rng quic_prob in
    let quic_cca =
      if not quic then None
      else
        (* QUIC stacks only ship CUBIC, BBR, and Reno; sites keep the CCA
           they deploy over TCP when it exists in their stack (§4.4) *)
        match cca with
        | "cubic" | "bbr" | "newreno" -> Some cca
        | "bbr2" -> Some "bbr"
        | _ -> Some (if Netsim.Rng.bool rng 0.5 then "cubic" else "newreno")
    in
    let noise_factor =
      (* a heavy tail of badly-connected sites feeds the Unknown rows
         (the paper's Unknown share runs 17-38 % depending on the region) *)
      if Netsim.Rng.bool rng 0.22 then Netsim.Rng.uniform rng 8.0 20.0
      else Netsim.Rng.uniform rng 0.5 1.5
    in
    ( {
        Website.rank;
        name = Printf.sprintf "site-%05d.example" rank;
        cdn;
        page_bytes = 400_000 + Netsim.Rng.int rng 800_000;
        deployments;
        quic;
        quic_cca;
        noise_factor;
        ddos_sensitivity = Netsim.Rng.uniform rng 0.75 0.99;
      },
      cca )
  in
  List.init n (fun i -> make (i + 1))

let generate ?n ~seed () = List.map fst (generate_full ?n ~seed ())

(* Rewrite one site from its drawn CCA to the migration target: every
   region deployed with [from_cca] flips, and the QUIC stack follows the
   same only-CUBIC/BBR/Reno rule as generation. Everything else (rank,
   CDN, noise, page size) is untouched — site identity is stable across
   epochs, only its deployment moves. *)
let convert_site m (site : Website.t) =
  let deployments =
    List.map
      (fun (r, c) -> if c = m.from_cca then (r, m.to_cca) else (r, c))
      site.Website.deployments
  in
  let quic_cca =
    match site.Website.quic_cca with
    | Some c when c = m.from_cca || (m.from_cca = "bbr2" && c = "bbr") -> (
      match m.to_cca with
      | "cubic" | "bbr" | "newreno" -> Some m.to_cca
      | "bbr2" -> Some "bbr"
      | _ -> site.Website.quic_cca)
    | other -> other
  in
  { site with Website.deployments; quic_cca }

let generate_at ?n ~seed ?(migration = default_migration) ~epoch () =
  let sites = generate_full ?n ~seed () in
  let w_from =
    Option.value ~default:0.0 (List.assoc_opt migration.from_cca base_weights)
  in
  let pts = converted_points migration ~epoch in
  if pts <= 0.0 || w_from <= 0.0 then List.map fst sites
  else
    let frac = Float.min 1.0 (pts /. w_from) in
    List.map
      (fun ((site : Website.t), cca) ->
        if cca <> migration.from_cca then site
        else
          (* a per-site uniform drawn from a namespaced substream keyed
             only by (seed, rank): monotone in [epoch], so a site that
             converted at epoch e stays converted at every later epoch,
             and sampling one epoch never perturbs another *)
          let r =
            Netsim.Rng.named (Netsim.Rng.substream ~seed site.Website.rank) "migration"
          in
          if Netsim.Rng.float r < frac then convert_site migration site else site)
      sites
