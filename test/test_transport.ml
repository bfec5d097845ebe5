(* Cross-transport identity: the same seeded query must return
   byte-identical results, the same S2 trace, the same channel totals
   (Loopback vs Socket — both charge real encoded frames; Inproc charges
   the closed forms, which the Wire tests pin to the same numbers) and
   the same Obs op-counter totals whether S2 runs in-process (Inproc),
   through the codec in-process (Loopback) or in a forked daemon over a
   socketpair (Socket). For the socket run, S2-side counters live in the
   daemon and come back via [Ctx.remote_stats]. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let seed = "transport-identity"
let key_bits = 128
let rand_bits = 96

let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = true }

(* OCaml refuses [Unix.fork] in a process that has ever spawned a domain
   (the spawning domain keeps a backup thread for the life of the
   process, even after every other domain is joined). The width tests
   start compute-pool helpers, so every socket daemon this suite uses is
   forked up front, before the first query, and handed out in order; each
   case declares how many it takes (see [case]). *)
let daemons = Queue.create ()

let prefork_daemons n =
  for _ = 1 to n do
    Queue.add (Transport.spawn_daemon hello) daemons
  done;
  (* daemons a filtered run never used: EOF makes them exit *)
  at_exit (fun () ->
      Queue.iter
        (fun (fd, pid) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        daemons)

let take_daemon () = Queue.pop daemons

type outcome = {
  top : (Nat.t * Nat.t * Nat.t array) list;  (** raw (worst, best, seen) ciphertexts *)
  ids : string list;  (** decrypted result identities *)
  halting_depth : int;
  trace : Trace.event list;
  bytes : int;
  msgs : int;
  rounds : int;
  ops : (string * int) list;  (** client + S2 op counters, summed by name *)
}

let merge_ops a b =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      Hashtbl.replace tbl name (v + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    (a @ b);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort compare
  |> List.filter (fun (_, v) -> v > 0)

(* run one seeded Fig. 3 query on a given transport; [pid] set when a
   daemon child must be reaped afterwards. [domains] is the context's
   compute width; [shards > 1] runs the sharded coordinator over a
   row-partitioned encryption of the same relation. [trace] reads S2's
   trace where the transport cannot (mux). *)
let run_on ?(domains = 1) ?(shards = 1) ?trace ~variant (mode : Ctx.mode) (pid : int option) :
    outcome =
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ~domains ~mode ctx_rng pub sk in
  let options = { Sectopk.Query.default_options with variant } in
  let tk_of key = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let res, key =
    if shards = 1 then begin
      let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub fig3 in
      (Sectopk.Query.run ctx er (tk_of key) options, key)
    end
    else begin
      let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub fig3 in
      (Shard.run ctx ers (tk_of key) options, key)
    end
  in
  (* identity must be checkable without S2 state: open results with the
     provisioned secret key, as a socket-mode client would *)
  let all_ids = List.init (Relation.n_rows fig3) (fun i -> Relation.object_id fig3 i) in
  let ids =
    List.map (fun (id, _, _) -> id) (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
  in
  let trace = match trace with Some f -> f () | None -> Ctx.trace_events ctx in
  let chan = Ctx.channel ctx in
  let ops =
    merge_ops
      (List.map
         (fun (op, v) -> (Obs.Metrics.name op, v))
         (Obs.Metrics.to_alist (Obs.Collector.metrics ctx.Ctx.obs)))
      (Ctx.remote_stats ctx)
  in
  (match pid with Some pid -> Transport.stop_daemon ctx.Ctx.transport pid | None -> ());
  {
    top =
      List.map
        (fun (it : Enc_item.scored) ->
          ( (it.worst :> Nat.t),
            (it.best :> Nat.t),
            Array.map (fun (c : Paillier.ciphertext) -> (c :> Nat.t)) it.seen ))
        res.Sectopk.Query.top;
    ids;
    halting_depth = res.Sectopk.Query.halting_depth;
    trace;
    bytes = Channel.bytes_total chan;
    msgs = Channel.messages_total chan;
    rounds = Channel.rounds_total chan;
    ops;
  }

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

let run_all ~variant () =
  with_obs (fun () ->
      let inproc = run_on ~variant Ctx.Inproc None in
      let loopback = run_on ~variant Ctx.Loopback None in
      let fd, pid = take_daemon () in
      let socket = run_on ~variant (Ctx.Socket_fd fd) (Some pid) in
      (inproc, loopback, socket))

let nat_triple_eq (w1, b1, s1) (w2, b2, s2) =
  Nat.equal w1 w2 && Nat.equal b1 b2
  && Array.length s1 = Array.length s2
  && Array.for_all2 Nat.equal s1 s2

let check_identical name (a : outcome) (b : outcome) =
  Alcotest.(check (list string)) (name ^ ": result ids") a.ids b.ids;
  Alcotest.(check int) (name ^ ": halting depth") a.halting_depth b.halting_depth;
  Alcotest.(check bool) (name ^ ": ciphertexts byte-identical") true
    (List.length a.top = List.length b.top && List.for_all2 nat_triple_eq a.top b.top);
  Alcotest.(check bool) (name ^ ": S2 trace identical") true (a.trace = b.trace);
  Alcotest.(check int) (name ^ ": bytes") a.bytes b.bytes;
  Alcotest.(check int) (name ^ ": messages") a.msgs b.msgs;
  Alcotest.(check int) (name ^ ": rounds") a.rounds b.rounds;
  Alcotest.(check (list (pair string int))) (name ^ ": obs op totals") a.ops b.ops

let test_variant variant () =
  let inproc, loopback, socket = run_all ~variant () in
  Alcotest.(check bool) "trace non-trivial" true (List.length inproc.trace > 3);
  Alcotest.(check bool) "bytes non-trivial" true (inproc.bytes > 1000);
  check_identical "inproc vs loopback" inproc loopback;
  check_identical "inproc vs socket" inproc socket

(* the daemon's S2 op counters must actually come from the other process *)
let test_remote_stats () =
  with_obs (fun () ->
      let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
      let fd, pid = take_daemon () in
      let ctx = Ctx.of_keys ~blind_bits:48 ~mode:(Ctx.Socket_fd fd) ctx_rng pub sk in
      let a = Paillier.encrypt ctx.Ctx.s1.Ctx.rng pub (Nat.of_int 3) in
      let b = Paillier.encrypt ctx.Ctx.s1.Ctx.rng pub (Nat.of_int 5) in
      Alcotest.(check bool) "3 <= 5" true (Enc_compare.leq ctx a b);
      let stats = Ctx.remote_stats ctx in
      Alcotest.(check bool) "daemon counted decryptions" true
        (List.exists (fun (name, v) -> name = "paillier_decrypt" && v > 0) stats);
      (* local transports have no remote half *)
      let local = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk in
      Alcotest.(check (list (pair string int))) "local remote_stats empty" []
        (Ctx.remote_stats local);
      Transport.stop_daemon ctx.Ctx.transport pid)

(* ---------------- compute width ----------------

   The context's compute width ([Ctx.compute], S2's parallel
   decryptions) is pure mechanism on every transport: width 1 and width 2
   must agree on results, ciphertexts, S2 traces, bytes, rounds and op
   counters. *)

(* A query through a round scheduler with an in-process backend whose
   responders replay the client's provisioning at the same width (what
   serve-s1's Local mode does); the session's root responder holds the
   S2 trace. *)
let run_mux ~domains ~shards ~variant =
  let roots = Hashtbl.create 4 and lock = Mutex.create () in
  let make ~session =
    let s = S2_server.of_hello ~domains hello in
    Mutex.lock lock;
    Hashtbl.replace roots session s;
    Mutex.unlock lock;
    s
  in
  let st = S2_server.mux_state ~make in
  let sched =
    Sched.create ~window_us:0 ~registry:(Obs.Registry.create ())
      ~backend:(S2_server.handle_mux_ops st) ()
  in
  Fun.protect
    ~finally:(fun () -> Sched.stop sched)
    (fun () ->
      let session = Sched.open_query sched in
      let trace () = Trace.events (S2_server.trace (Hashtbl.find roots session)) in
      let out = run_on ~domains ~shards ~trace ~variant (Ctx.Mux (sched, session)) None in
      Sched.close_query sched session;
      out)

let run_width ~domains ~shards ~variant transport =
  match transport with
  | `Inproc -> run_on ~domains ~shards ~variant Ctx.Inproc None
  | `Loopback -> run_on ~domains ~shards ~variant Ctx.Loopback None
  | `Socket ->
    let fd, pid = take_daemon () in
    run_on ~domains ~shards ~variant (Ctx.Socket_fd fd) (Some pid)
  | `Mux -> run_mux ~domains ~shards ~variant

let test_width ~shards ~variant transport () =
  with_obs (fun () ->
      let narrow = run_width ~domains:1 ~shards ~variant transport in
      let wide = run_width ~domains:2 ~shards ~variant transport in
      Alcotest.(check bool) "trace non-trivial" true (List.length narrow.trace > 3);
      check_identical "width 1 vs 2" narrow wide)

(* The fork rule in practice: a daemon forked before any domain still
   serves a wide query identically after wide queries have left pool
   helpers live in this process. *)
let test_daemon_after_wide_query () =
  with_obs (fun () ->
      let wide = run_on ~domains:2 ~variant:Sectopk.Query.Full Ctx.Inproc None in
      let again = run_on ~domains:2 ~variant:Sectopk.Query.Full Ctx.Inproc None in
      check_identical "persistent pool, second query" wide again;
      let fd, pid = take_daemon () in
      let socket = run_on ~domains:2 ~variant:Sectopk.Query.Full (Ctx.Socket_fd fd) (Some pid) in
      check_identical "inproc vs socket" wide socket)

(* A test case with the number of socket daemons it takes. *)
let case ?(daemons = 0) name speed f = (daemons, Alcotest.test_case name speed f)

let width_cases =
  List.concat_map
    (fun (tname, transport, daemons) ->
      [ case ~daemons (tname ^ " Qry_F width 1 vs 2") `Slow
          (test_width ~shards:1 ~variant:Sectopk.Query.Full transport);
        case ~daemons (tname ^ " Qry_E 2 shards width 1 vs 2") `Slow
          (test_width ~shards:2 ~variant:Sectopk.Query.Elim transport) ])
    [ ("inproc", `Inproc, 0); ("loopback", `Loopback, 0); ("socket", `Socket, 2); ("mux", `Mux, 0) ]

let suite =
  [ ( "identity",
      [ case ~daemons:1 "Qry_F inproc/loopback/socket" `Slow (test_variant Sectopk.Query.Full);
        case ~daemons:1 "Qry_E inproc/loopback/socket" `Slow (test_variant Sectopk.Query.Elim) ] );
    ("daemon", [ case ~daemons:1 "remote stats" `Quick test_remote_stats ]);
    ( "width",
      width_cases
      @ [ case ~daemons:1 "socket daemon after a wide query" `Quick test_daemon_after_wide_query ]
    ) ]

let () =
  prefork_daemons
    (List.fold_left
       (fun n (_, cases) -> List.fold_left (fun n (d, _) -> n + d) n cases)
       0 suite);
  Alcotest.run "transport" (List.map (fun (group, cases) -> (group, List.map snd cases)) suite)
