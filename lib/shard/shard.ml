open Crypto
open Proto

type stats = { shards : int; merge_rounds : int }

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let rec drop n = function [] -> [] | _ :: rest as l -> if n = 0 then l else drop (n - 1) rest

(* The NRA bound test of Sectopk.Query.halting_test, generalized to one
   unseen bound per non-exhausted shard: an unseen object lives in exactly
   one shard, so its best possible score is that shard's bottom-score sum,
   and the conjunction over shards replaces the single global bound. *)
let halting_test ctx ~halting ~compare ~k ~sorted ~unseen_bounds =
  if List.length sorted < k then false
  else begin
    let wk = (List.nth sorted (k - 1)).Enc_item.worst in
    let rest = drop k sorted in
    let leq =
      match compare with
      | `Sign -> Enc_compare.leq ctx
      | `Dgk bits ->
        (* same +2 shift as the unsharded test: the sentinel -1 must land
           in the unsigned domain the bitwise protocol works over *)
        let pub = ctx.Ctx.s1.Ctx.pub in
        let two = Paillier.trivial pub Bignum.Nat.two in
        fun a b ->
          Enc_compare.leq_dgk ctx ~bits (Paillier.add pub a two) (Paillier.add pub b two)
    in
    match (halting, compare) with
    | `All, `Sign ->
      (* every candidate test and every shard's unseen-bound test in one
         batch round — checkpoint rounds are flat in the shard count *)
      let pairs =
        List.map (fun (it : Enc_item.scored) -> (it.Enc_item.best, wk)) rest
        @ List.map (fun b -> (b, wk)) unseen_bounds
      in
      List.for_all Fun.id (Enc_compare.leq_many ctx pairs)
    | _ ->
      let candidates_ok =
        match halting with
        | `KthOnly -> (
          match rest with [] -> true | next :: _ -> leq next.Enc_item.best wk)
        | `All -> List.for_all (fun (it : Enc_item.scored) -> leq it.Enc_item.best wk) rest
      in
      candidates_ok && List.for_all (fun b -> leq b wk) unseen_bounds
  end

let run_sharded (ctx : Ctx.t) ers (tk : Sectopk.Scheme.token)
    (options : Sectopk.Query.options) =
  let shards = Array.length ers in
  let ctx = Ctx.with_domains ctx (max ctx.Ctx.domains options.Sectopk.Query.domains) in
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span "SecQuery" @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let k = tk.Sectopk.Scheme.k in
  let attrs = Array.of_list tk.Sectopk.Scheme.attrs in
  let m = Array.length attrs in
  if m = 0 then invalid_arg "Shard.run: empty token";
  Array.iter
    (fun er ->
      if Sectopk.Scheme.n_attrs er <> Sectopk.Scheme.n_attrs ers.(0) then
        invalid_arg "Shard.run: shards disagree on attribute count")
    ers;
  let ns = Array.map Sectopk.Scheme.n_rows ers in
  let n_max = Array.fold_left max 0 ns in
  let check_every =
    match options.variant with Batched p -> max 1 p | Full | Elim -> 1
  in
  let dedup_mode =
    match options.variant with
    | Full -> Sec_dedup.Replace
    | Elim | Batched _ -> Sec_dedup.Eliminate
  in
  let limit = match options.max_depth with None -> n_max | Some d -> min d n_max in
  (* per-shard NRA state: scanned prefixes, bottom scores, running list *)
  let history = Array.init shards (fun _ -> Array.init m (fun _ -> ref [])) in
  let bottoms = Array.init shards (fun _ -> Array.make m None) in
  let t_lists = Array.make shards [] in
  let merge_rounds = ref 0 in
  let timings = ref [] in
  (* One sub-context per shard, forked once and held across the whole
     loop: shard-local protocol phases run as concurrent sessions over the
     shared transport (coalesced by the round scheduler under Mux), with
     Ctx.parallel's exact fork/collector/join discipline. *)
  let subs = Ctx.fork_subs ctx ~jobs:shards in
  let pool_domains = Ctx.effective_domains ctx in
  let weighted_entry j li w depth =
    let e = Sectopk.Scheme.entry ers.(j) ~list:li ~depth in
    if w = 1 then e
    else
      { e with Enc_item.score = Paillier.scalar_mul pub e.Enc_item.score (Bignum.Nat.of_int w) }
  in
  let result = ref None in
  let depth = ref 0 in
  Fun.protect ~finally:(fun () -> Ctx.join_subs ctx subs) @@ fun () ->
  while !result = None && !depth < limit do
    let d = !depth in
    let (), dt =
      Obs.Timer.time @@ fun () ->
      Obs.span ("depth:" ^ string_of_int d) @@ fun () ->

    (* global depth barrier: every live shard advances to depth d *)
    let live = List.filter (fun j -> d < ns.(j)) (List.init shards Fun.id) in
    let rows =
      List.map
        (fun j ->
          let row_arr = Array.map (fun (li, w) -> weighted_entry j li w d) attrs in
          Array.iteri
            (fun i e ->
              history.(j).(i) := e :: !(history.(j).(i));
              bottoms.(j).(i) <- Some e.Enc_item.score)
            row_arr;
          (j, row_arr))
        live
    in
    (* Phase 1 — bounds. The per-list SecWorst/SecBest instances are
       independent across lists AND shards, so the whole fleet's
       instances share the same two round pairs a single shard would use:
       one Equality batch + one Recover batch each, four rounds per depth
       whatever the shard count. Global instance index gi maps to
       (shard block gi / m, local list gi mod m). *)
    let indices = List.init m Fun.id in
    let owns = Array.make (List.length rows * m) (Gadgets.enc_zero s1) in
    let worsts =
      Array.of_list
        (Sec_worst.run_many ctx
           ~seen:(fun gi eq_bits ->
             let i = gi mod m in
             let eq_arr = Array.of_list eq_bits in
             owns.(gi) <- Paillier.encrypt s1.Ctx.rng pub Bignum.Nat.one;
             List.init m (fun l ->
                 if l = i then None
                 else
                   let e = if l < i then eq_arr.(l) else eq_arr.(l - 1) in
                   Some
                     ( e,
                       Paillier.encrypt s1.Ctx.rng pub Bignum.Nat.one,
                       Gadgets.enc_zero s1 ))
             |> List.filter_map Fun.id)
           (List.concat_map
              (fun (_, row_arr) ->
                let row = Array.to_list row_arr in
                List.map
                  (fun i -> (row_arr.(i), List.filteri (fun l _ -> l <> i) row))
                  indices)
              rows))
    in
    let bests =
      Array.of_list
        (Sec_best.run_many ctx
           (List.concat_map
              (fun (j, row_arr) ->
                List.map
                  (fun i ->
                    let hist =
                      List.filter (fun l -> l <> i) indices
                      |> List.map (fun l ->
                             (!(history.(j).(l)), Option.get bottoms.(j).(l)))
                    in
                    (row_arr.(i), hist))
                  indices)
              rows))
    in
    let scored_by_shard =
      Array.of_list
        (List.mapi
           (fun pos ((j, row_arr) : int * Enc_item.entry array) ->
             ( j,
               List.map
                 (fun i ->
                   let gi = (pos * m) + i in
                   let worst, _, picked_list = worsts.(gi) in
                   let picked = Array.of_list picked_list in
                   let seen =
                     Array.init m (fun l ->
                         if l = i then owns.(gi)
                         else if l < i then picked.(l)
                         else picked.(l - 1))
                   in
                   { Enc_item.ehl = row_arr.(i).Enc_item.ehl; worst; best = bests.(gi); seen })
                 indices ))
           rows)
    in
    (* Phase 2 — shard-local dedup + merge into the shard's running list,
       one session per shard. The row partition makes the SecUpdate grid
       block-diagonal: cross-shard pairs encode distinct objects by
       construction and never meet, so the per-depth O(|T|·|gamma|) work
       divides by the shard count. *)
    let updated =
      Core.Pool.map ~domains:pool_domains ~jobs:(Array.length scored_by_shard) (fun p ->
          let j, scored = scored_by_shard.(p) in
          Obs.with_collector subs.(j).Ctx.obs (fun () ->
              let gamma = Sec_dedup.run subs.(j) ~mode:dedup_mode scored in
              (j, Sec_update.run subs.(j) ~mode:dedup_mode ~t_list:t_lists.(j) ~gamma)))
    in
    Array.iter (fun (j, t) -> t_lists.(j) <- t) updated;
    (* Phase 3 — checkpoint: refresh every shard's upper bounds against
       its own bottoms (shard-local sessions again), then one global
       merge: sort the concatenation, one NRA test with a per-shard
       unseen bound. Exhausted shards have no unseen objects and drop
       out of the bound test. *)
    let total = Array.fold_left (fun acc t -> acc + List.length t) 0 t_lists in
    let at_checkpoint = (d + 1) mod check_every = 0 || d = limit - 1 in
    if at_checkpoint && total >= k then begin
      let refresh_shards =
        Array.of_list (List.filter (fun j -> t_lists.(j) <> []) (List.init shards Fun.id))
      in
      let refreshed =
        Core.Pool.map ~domains:pool_domains ~jobs:(Array.length refresh_shards) (fun p ->
            let j = refresh_shards.(p) in
            Obs.with_collector subs.(j).Ctx.obs (fun () ->
                ( j,
                  Sec_refresh.run subs.(j) ~items:t_lists.(j)
                    ~bottoms:(Array.map Option.get bottoms.(j)) )))
      in
      Array.iter (fun (j, t) -> t_lists.(j) <- t) refreshed;
      incr merge_rounds;
      Obs.span "ShardMerge" @@ fun () ->
      let sorted =
        Enc_sort.sort ctx ~strategy:options.sort (List.concat (Array.to_list t_lists))
      in
      let unseen_bounds =
        List.filter_map
          (fun j ->
            if d >= ns.(j) - 1 then None
            else
              Some
                (Array.fold_left
                   (fun acc b -> Paillier.add pub acc (Option.get b))
                   (Gadgets.enc_zero s1) bottoms.(j)))
          (List.init shards Fun.id)
      in
      let exhausted = d >= n_max - 1 in
      if
        exhausted
        || halting_test ctx ~halting:options.halting ~compare:options.compare ~k ~sorted
             ~unseen_bounds
      then
        result :=
          Some
            {
              Sectopk.Query.top = take k sorted;
              halting_depth = d + 1;
              halted = true;
              depth_seconds = [||];
            }
    end
    in
    timings := dt :: !timings;
    incr depth
  done;
  let depth_seconds = Array.of_list (List.rev !timings) in
  let res =
    match !result with
    | Some r -> { r with Sectopk.Query.depth_seconds }
    | None ->
      (* stopped by max_depth: best-effort merge of the running lists *)
      let sorted =
        Enc_sort.sort ctx ~strategy:options.sort (List.concat (Array.to_list t_lists))
      in
      { Sectopk.Query.top = take k sorted; halting_depth = !depth; halted = false; depth_seconds }
  in
  (res, { shards; merge_rounds = !merge_rounds })

let run_with_stats ctx ers tk options =
  match Array.length ers with
  | 0 -> invalid_arg "Shard.run: no shards"
  | 1 ->
    (* the single-shard index IS the unsharded index: delegate verbatim,
       byte-for-byte (no coordinator state, no extra forks or draws) *)
    (Sectopk.Query.run ctx ers.(0) tk options, { shards = 1; merge_rounds = 0 })
  | _ -> run_sharded ctx ers tk options

let run ctx ers tk options = fst (run_with_stats ctx ers tk options)
