(* Workload definitions and the relation each one queries. *)

open Dataset

type workload = {
  name : string;
  base : string;  (* generator seed of the workload's fixed relation *)
  rows : int;
  attrs : int;
  dist : Synthetic.distribution;
  shards : int;
  k : int;
  m : int;  (* scoring attributes: the first [m], summed *)
  clients : int;  (* concurrent closed-loop clients *)
  churn : bool;  (* a new TCP connection per query *)
  coalesce : bool;  (* serve-s1 round coalescing on (its default window) *)
  per_second : float;  (* queries per second of --seconds: the run's fixed count *)
}

let workloads =
  [
    {
      name = "deep-solo";
      base = "perfbench-27";
      rows = 48;
      attrs = 3;
      dist = Synthetic.Uniform { lo = 0; hi = 100 };
      shards = 1;
      k = 2;
      m = 3;
      clients = 1;
      churn = false;
      coalesce = false;
      per_second = 0.8;
    };
    {
      name = "deep-pair";
      base = "perfbench-27";
      rows = 48;
      attrs = 3;
      dist = Synthetic.Uniform { lo = 0; hi = 100 };
      shards = 1;
      k = 2;
      m = 3;
      clients = 2;
      churn = false;
      coalesce = true;
      per_second = 1.2;
    };
    {
      name = "shallow-churn";
      base = "perfbench-20";
      rows = 2048;
      attrs = 3;
      dist = Synthetic.Correlated { base = Synthetic.Uniform { lo = 0; hi = 100 }; noise = 5 };
      shards = 2;
      k = 1;
      m = 3;
      clients = 2;
      churn = true;
      coalesce = true;
      per_second = 3.0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* A fixed count per run, so counts repeat exactly: at least 20 queries
   (the tail figure needs more than ten) and a multiple of the client
   count, so every client issues the same number. *)
let queries w ~seconds =
  let q = max 20 (int_of_float (Float.round (float_of_int seconds *. w.per_second))) in
  (q + w.clients - 1) / w.clients * w.clients

(* The workload's relation and the data owner's randomness are fixed
   per workload; the seed picks the deployment's key material instead
   (see [provision_seed]). The relation is drawn once so that every seed
   runs the same protocol shape: the same halting depth, candidate sets
   and shard placement, hence the same rounds per query. A seed that
   reshuffled the rows would move objects between shards and change the
   halting depth of the sharded workload from run to run. *)
let relation w = Synthetic.generate ~seed:w.base ~name:"base" ~rows:w.rows ~attrs:w.attrs w.dist

(* The owner's EHL+ and list-permutation keys, shard placement key and
   encryption randomness, shared by workloads over the same relation. *)
let owner_rng w = Crypto.Rng.create ~seed:("perfbench-owner:" ^ w.base)

let scoring w = Topk.Scoring.sum_of (List.init w.m Fun.id)

let scores w rel = Array.init (Relation.n_rows rel) (Topk.Scoring.score (scoring w) rel)

(* The seed the Paillier keys of both clouds derive from
   (Proto.Ctx.provision): the owner encrypts under it, the client
   decrypts with it and serve-s1 gets it as --seed. It also seeds S1's
   per-query randomness and S2's replies, so every ciphertext a query
   touches changes with the seed. With the owner's randomness shared
   per relation, deep-solo and deep-pair serve byte-identical indexes
   under one seed. *)
let provision_seed ~seed = "perfbench:" ^ seed
