open Bignum
open Crypto

let blind_scalar (s1 : Ctx.s1) =
  match s1.blind_bits with
  | None -> Rng.unit_mod s1.rng s1.pub.Paillier.n
  | Some bits -> Nat.succ (Rng.nat_bits s1.rng bits)

(* One batched equality test: S2 decrypts each blinded difference and
   returns E2(1)/E2(0) per entry. The rpc happens even for an empty batch:
   the protocol's round (and S2's empty Equality_bits trace entry) exists
   either way. *)
let equality_round (ctx : Ctx.t) ~protocol diffs =
  match Ctx.rpc ctx ~label:protocol (Wire.Equality diffs) with
  | Wire.Bits2 replies -> replies
  | _ -> failwith "Gadgets.equality_round: unexpected response"

let conjunction_round (ctx : Ctx.t) ~protocol groups =
  match Ctx.rpc ctx ~label:protocol (Wire.Conjunction groups) with
  | Wire.Bits2 replies -> replies
  | _ -> failwith "Gadgets.conjunction_round: unexpected response"

let select (s1 : Ctx.s1) ~t ~if_one ~if_zero =
  let dj = s1.djpub in
  (* the constant E2(1) may be a deterministic encryption: every select
     output is re-randomized by RecoverEnc's blinding before leaving S1 *)
  let e2_one = Damgard_jurik.trivial dj Nat.one in
  let one_minus_t = Damgard_jurik.sub dj e2_one t in
  Damgard_jurik.add dj
    (Damgard_jurik.scalar_mul_ct dj t if_one)
    (Damgard_jurik.scalar_mul_ct dj one_minus_t if_zero)

let recover_enc (ctx : Ctx.t) ~protocol e2c =
  let s1 = ctx.Ctx.s1 in
  let r = Rng.nat_below s1.rng s1.pub.Paillier.n in
  let enc_r = Paillier.encrypt s1.rng s1.pub r in
  let blinded = Damgard_jurik.scalar_mul_ct s1.djpub e2c enc_r in
  (* S2 strips the outer layer; the inner Enc(c+r) is blinded *)
  match Ctx.rpc ctx ~label:protocol (Wire.Recover blinded) with
  | Wire.Ct inner -> Paillier.sub s1.pub inner enc_r (* back at S1: remove r *)
  | _ -> failwith "Gadgets.recover_enc: unexpected response"

let select_recover ctx ~protocol ~t ~if_one ~if_zero =
  recover_enc ctx ~protocol (select ctx.Ctx.s1 ~t ~if_one ~if_zero)

(* Draw, then compute (DESIGN.md section 4j): each batched gadget first
   draws all its randomness from [s1.rng] in list order — exactly the
   draws the element-by-element loop made — and hands only deterministic
   arithmetic to [Ctx.compute], so results are width-independent. *)

(* The RecoverEnc blinding of one element: r and the nonce of Enc(r). *)
let draw_blinding (s1 : Ctx.s1) =
  let r = Rng.nat_below s1.rng s1.pub.Paillier.n in
  (r, Paillier.draw_nonce s1.rng s1.pub)

(* Ship the blinded E2 values in one batch round and strip each
   response's blinding (a Paillier negation per element, at width). *)
let recover_round (ctx : Ctx.t) ~protocol ~who blinded =
  let s1 = ctx.Ctx.s1 in
  let resps =
    Ctx.rpc_batch ctx ~label:protocol (List.map (fun (_, b) -> Wire.Recover b) blinded)
  in
  Ctx.compute_list ctx
    (fun ((enc_r, _), resp) ->
      match resp with
      | Wire.Ct inner -> Paillier.sub s1.pub inner enc_r
      | _ -> failwith ("Gadgets." ^ who ^ ": unexpected response"))
    (List.combine blinded resps)

(* Batched RecoverEnc: per-element blinding drawn in list order (the same
   draws singleton execution makes), then every Recover in one frame. *)
let recover_enc_many (ctx : Ctx.t) ~protocol e2cs =
  let s1 = ctx.Ctx.s1 in
  let drawn = List.map (fun e2c -> (e2c, draw_blinding s1)) e2cs in
  recover_round ctx ~protocol ~who:"recover_enc_many"
    (Ctx.compute_list ctx
       (fun (e2c, (r, nonce)) ->
         let enc_r = Paillier.encrypt_nonce s1.pub nonce r in
         (enc_r, Damgard_jurik.scalar_mul_ct s1.djpub e2c enc_r))
       drawn)

(* Batched RecoverEnc over multi-exponentiation specs. Each spec is the
   pair list of one E2 accumulator [sum_i k_i * x_i]; since the RecoverEnc
   blinding is itself an exponentiation, [(prod c_i^{k_i})^e =
   prod c_i^{k_i * e}], it folds into the same simultaneous pass and the
   blinding costs no extra modexp. Blinding draws happen in list order
   (the same draws {!recover_enc_many} makes). *)
let recover_enc_specs (ctx : Ctx.t) ~protocol specs =
  let s1 = ctx.Ctx.s1 in
  let drawn = List.map (fun pairs -> (pairs, draw_blinding s1)) specs in
  recover_round ctx ~protocol ~who:"recover_enc_specs"
    (Ctx.compute_list ctx
       (fun (pairs, (r, nonce)) ->
         let enc_r = Paillier.encrypt_nonce s1.pub nonce r in
         let e = Paillier.to_nat enc_r in
         (* account for the blinding exponentiation the fold absorbs *)
         Obs.bump Obs.Metrics.Dj_mul;
         ( enc_r,
           Damgard_jurik.scalar_mul_many s1.djpub
             (List.map (fun (c, k) -> (c, Nat.mul (Paillier.to_nat k) e)) pairs) ))
       drawn)

let select_recover_many (ctx : Ctx.t) ~protocol choices =
  let dj = ctx.Ctx.s1.djpub in
  recover_enc_specs ctx ~protocol
    (List.map
       (fun (t, if_one, if_zero) ->
         let e2_one = Damgard_jurik.trivial dj Nat.one in
         let one_minus_t = Damgard_jurik.sub dj e2_one t in
         [ (t, if_one); (one_minus_t, if_zero) ])
       choices)

let lift (ctx : Ctx.t) ~protocol cts =
  let s1 = ctx.Ctx.s1 in
  (* blinding below n/2 so that bit + r never wraps mod n (a wrap would
     corrupt the value when the blinding is stripped in the wider DJ
     plaintext space) *)
  let half = Nat.shift_right s1.pub.Paillier.n 1 in
  let drawn =
    List.map
      (fun c ->
        let r = Rng.nat_below s1.rng half in
        (c, r, Paillier.draw_nonce s1.rng s1.pub))
      cts
  in
  let blinded =
    Ctx.compute_list ctx
      (fun (c, r, nonce) -> (r, Paillier.add s1.pub c (Paillier.encrypt_nonce s1.pub nonce r)))
      drawn
  in
  (* S2 re-encrypts the (blinded, uniform) plaintexts under DJ *)
  let lifted =
    match Ctx.rpc ctx ~label:protocol (Wire.Lift (List.map snd blinded)) with
    | Wire.Bits2 lifted -> lifted
    | _ -> failwith "Gadgets.lift: unexpected response"
  in
  (* S1 strips the blinding inside the DJ layer *)
  let drawn =
    List.map2
      (fun (r, _) e2 -> (r, e2, Damgard_jurik.draw_nonce s1.rng s1.djpub))
      blinded lifted
  in
  Ctx.compute_list ctx
    (fun (r, e2, nonce) ->
      Damgard_jurik.sub s1.djpub e2 (Damgard_jurik.encrypt_nonce s1.djpub nonce r))
    drawn

(* One EHL+ difference's draw half ({!Ehl.Ehl_plus.diff_blinds}); the
   multi-exponentiations of a whole list of lists run in one pass at the
   context's width ({!diff_lists}). *)
let draw_diff (s1 : Ctx.s1) a b =
  (a, b, Ehl.Ehl_plus.diff_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub a b)

let diff_lists (ctx : Ctx.t) drawn =
  let pub = ctx.Ctx.s1.pub in
  let flat =
    ref
      (Ctx.compute_list ctx
         (fun (a, b, rhos) -> Ehl.Ehl_plus.diff_with pub a b rhos)
         (List.concat drawn))
  in
  List.map
    (fun l ->
      List.map
        (fun _ ->
          match !flat with
          | d :: rest ->
            flat := rest;
            d
          | [] -> assert false)
        l)
    drawn

let enc_zero (s1 : Ctx.s1) = ignore s1.rng; Paillier.trivial s1.pub Nat.zero

let enc_int (s1 : Ctx.s1) v =
  if v < 0 then invalid_arg "Gadgets.enc_int: negative";
  Paillier.encrypt s1.rng s1.pub (Nat.of_int v)
