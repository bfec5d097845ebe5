open Crypto

let protocol = "SecWorst"

(* All instances of one phase share two rounds: every query's equality
   tests travel in one batch, then every query's selected contributions in
   one recover batch. A single-query call frames exactly as the historical
   per-item protocol (singleton batches delegate to plain rpcs).

   The optional [seen] callback lets SecQuery piggyback its seen-vector
   selections on the same recover batch: once the equality indicators are
   known (and unpermuted back to the caller's order), [seen i ts] returns
   extra [(t, if_one, if_zero)] choices for query [i] whose recoveries
   ride along with the contribution recoveries — no third round. *)
let run_many ?seen (ctx : Ctx.t) (queries : (Enc_item.entry * Enc_item.entry list) list) =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  (* S1: a random permutation over each H hides pairwise relations from S2 *)
  let prepped =
    List.map
      (fun ((target : Enc_item.entry), others) ->
        let arr = Array.of_list others in
        let perm = Rng.shuffle s1.rng arr in
        let permuted = Array.to_list arr in
        let drawn =
          List.map
            (fun (o : Enc_item.entry) -> Gadgets.draw_diff s1 target.Enc_item.ehl o.Enc_item.ehl)
            permuted
        in
        (target, perm, permuted, drawn))
      queries
  in
  let diffs = Gadgets.diff_lists ctx (List.map (fun (_, _, _, drawn) -> drawn) prepped) in
  let ts_per_query =
    List.map
      (function
        | Wire.Bits2 ts -> ts
        | _ -> failwith "Sec_worst.run_many: unexpected response")
      (Ctx.rpc_batch ctx ~label:protocol (List.map (fun d -> Wire.Equality d) diffs))
  in
  (* undo S1's own permutation on the indicators: perm maps new -> old *)
  let unpermuted_per_query =
    List.map2
      (fun (_, perm, _, _) ts ->
        match ts with
        | [] -> []
        | first :: _ ->
          let ts_arr = Array.of_list ts in
          let u = Array.make (Array.length ts_arr) first in
          Array.iteri (fun new_i old_i -> u.(old_i) <- ts_arr.(new_i)) perm;
          Array.to_list u)
      prepped ts_per_query
  in
  (* x'_i = x_i if o_i = o else 0; recovered per item because several items
     of the same depth can match the target simultaneously *)
  let zero = Gadgets.enc_zero s1 in
  let contrib_choices =
    List.map2
      (fun (_, _, permuted, _) ts ->
        List.map2 (fun t (o : Enc_item.entry) -> (t, o.Enc_item.score, zero)) ts permuted)
      prepped ts_per_query
  in
  let extra_choices =
    match seen with
    | None -> List.map (fun _ -> []) prepped
    | Some f -> List.mapi f unpermuted_per_query
  in
  let picked =
    ref
      (Gadgets.select_recover_many ctx ~protocol
         (List.concat contrib_choices @ List.concat extra_choices))
  in
  let next n =
    let rec go n acc l =
      if n = 0 then (List.rev acc, l)
      else match l with x :: rest -> go (n - 1) (x :: acc) rest | [] -> assert false
    in
    let taken, rest = go n [] !picked in
    picked := rest;
    taken
  in
  let worsts =
    List.map2
      (fun ((target : Enc_item.entry), _, permuted, _) _ ->
        List.fold_left (Paillier.add s1.pub) target.Enc_item.score
          (next (List.length permuted)))
      prepped ts_per_query
  in
  let extra_picks = List.map (fun choices -> next (List.length choices)) extra_choices in
  List.map2
    (fun (worst, unpermuted) extras -> (worst, unpermuted, extras))
    (List.combine worsts unpermuted_per_query)
    extra_picks

let run (ctx : Ctx.t) ~(target : Enc_item.entry) ~(others : Enc_item.entry list) =
  match run_many ctx [ (target, others) ] with
  | [ (worst, ts, _) ] -> (worst, ts)
  | _ -> assert false
