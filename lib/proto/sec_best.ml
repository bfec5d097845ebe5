open Crypto

let protocol = "SecBest"

(* Phase 1 of one history list: shuffle, draw the diffs' blinds (every
   list's diffs are then computed together, at width). Phase 2: the
   local select fold over the equality bits, yielding either the bottom
   score directly (empty prefix) or an E2 accumulator awaiting one
   RecoverEnc. The per-list rounds are batched across the whole history:
   one Equality batch, then one Recover batch — two rounds regardless of
   depth. *)
let prepare (s1 : Ctx.s1) ~(target : Enc_item.entry) (seen, bottom) =
  let arr = Array.of_list seen in
  ignore (Rng.shuffle s1.rng arr);
  let permuted = Array.to_list arr in
  let drawn =
    List.map
      (fun (e : Enc_item.entry) -> Gadgets.draw_diff s1 target.Enc_item.ehl e.Enc_item.ehl)
      permuted
  in
  (permuted, bottom, drawn)

let fold_list (s1 : Ctx.s1) (permuted, bottom, _) reply =
  let dj = s1.djpub in
  let ts =
    match reply with
    | Wire.Bits2 ts -> ts
    | _ -> failwith "Sec_best.run: unexpected response"
  in
  (* E2(sum t_e * Enc(x_e)): at most one t_e is 1 within a list. The
     selection is assembled as a multi-exponentiation spec — matched
     terms plus the unseen-selected bottom — and evaluated inside
     RecoverEnc's fused simultaneous pass. *)
  let sum_t =
    List.fold_left
      (fun acc t -> match acc with None -> Some t | Some a -> Some (Damgard_jurik.add dj a t))
      None ts
  in
  match sum_t with
  | None ->
    (* empty list prefix: the bottom value is the only contribution *)
    `Score bottom
  | Some sum_t ->
    (* E2(1 - sum t_e) selects the bottom score when the object is unseen *)
    let e2_one = Damgard_jurik.trivial dj Bignum.Nat.one in
    let unseen = Damgard_jurik.sub dj e2_one sum_t in
    `Recover
      (List.map2 (fun t (e : Enc_item.entry) -> (t, e.Enc_item.score)) ts permuted
      @ [ (unseen, bottom) ])

(* All instances of one phase share the two rounds: every query's per-list
   equality tests travel in one batch, then every pending accumulator in
   one Recover batch. A single-query call frames exactly as before. *)
let run_many (ctx : Ctx.t) queries =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let prepped =
    List.map (fun (target, history) -> (target, List.map (prepare s1 ~target) history)) queries
  in
  let all_lists = List.concat_map snd prepped in
  let diffs = Gadgets.diff_lists ctx (List.map (fun (_, _, drawn) -> drawn) all_lists) in
  let replies =
    Ctx.rpc_batch ctx ~label:protocol (List.map (fun d -> Wire.Equality d) diffs)
  in
  let pending = List.map2 (fold_list s1) all_lists replies in
  let recovered =
    Gadgets.recover_enc_specs ctx ~protocol
      (List.filter_map (function `Recover spec -> Some spec | `Score _ -> None) pending)
  in
  let per_list_scores =
    let rec stitch pending recovered =
      match (pending, recovered) with
      | [], [] -> []
      | `Score b :: rest, rs -> b :: stitch rest rs
      | `Recover _ :: rest, r :: rs -> r :: stitch rest rs
      | _ -> assert false
    in
    ref (stitch pending recovered)
  in
  let next n =
    let rec go n acc l =
      if n = 0 then (List.rev acc, l)
      else match l with x :: rest -> go (n - 1) (x :: acc) rest | [] -> assert false
    in
    let taken, rest = go n [] !per_list_scores in
    per_list_scores := rest;
    taken
  in
  List.map
    (fun ((target : Enc_item.entry), lists) ->
      List.fold_left (Paillier.add s1.pub) target.Enc_item.score (next (List.length lists)))
    prepped

let run (ctx : Ctx.t) ~target ~history =
  match run_many ctx [ (target, history) ] with [ r ] -> r | _ -> assert false
