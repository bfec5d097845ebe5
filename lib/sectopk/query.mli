(** SecQuery (Algorithm 3): oblivious NRA over an encrypted relation.

    Three variants, matching the paper's evaluation:
    - [Full] — Qry_F: fully private; duplicates become sentinel garbage
      (SecDedup / Replace) so the running list [T] grows by [m] every
      depth and S1 learns nothing but the halting depth.
    - [Elim] — Qry_E: SecDupElim everywhere; [T] stays duplicate-free and
      small at the cost of revealing the uniqueness pattern UP^d.
    - [Batched p] — Qry_Ba: like [Elim], but EncSort and the halting test
      run only every [p] depths (Section 10.2), [p >= k].

    The halting test sorts [T] by worst score and, following the NRA
    condition, halts when the best score of every candidate outside the
    top-k — and of every unseen object (bounded by the sum of the current
    bottom scores) — is at most the k-th worst score. [`KthOnly] checks
    only the (k+1)-th candidate, which is the paper's literal Algorithm 3
    line 10 (kept for ablation; it can halt early on adversarial data —
    see DESIGN.md). *)

type variant = Full | Elim | Batched of int

type options = {
  variant : variant;
  sort : Proto.Enc_sort.strategy;
  halting : [ `All | `KthOnly ];
  compare : [ `Sign | `Dgk of int ];
      (** EncCompare instantiation for the halting tests: [`Sign] — the
          fast blinded-sign protocol; [`Dgk bits] — the DGK/Veugen bitwise
          protocol (scores must fit in [bits]; the sentinel [-1] is mapped
          into the unsigned domain by a homomorphic [+2] shift). *)
  max_depth : int option;  (** Cap on scanned depths (benchmarks). *)
  domains : int;
      (** Compute width of the query ({!Proto.Ctx.compute}, and
          {!Proto.Ctx.parallel}'s fan-out where the transport allows);
          results and traces are identical for every setting. Effective
          width is the max of this and the context's own [domains]. *)
}

val default_options : options

type result = {
  top : Proto.Enc_item.scored list;  (** encrypted top-k, descending worst score. *)
  halting_depth : int;  (** depths scanned (the leakage [D_q]). *)
  halted : bool;  (** [false] if stopped by [max_depth] only. *)
  depth_seconds : float array;  (** wall-clock per scanned depth. *)
}

val run : Proto.Ctx.t -> Scheme.encrypted_relation -> Scheme.token -> options -> result
