(* Served-path benchmark: the real two-cloud deployment, end to end.

   This process is the data owner and the clients. It generates the
   workload's relation from the seed, encrypts and publishes it with the
   public Sectopk.Scheme / Store functions, starts the built
   `topk_cli serve-s2` and `serve-s1` daemons on loopback, and drives a
   fixed number of queries through them in a closed loop (a client sends
   its next query only once the previous answer is decrypted). Every
   answer is checked against the plaintext oracle.

     main.exe --topk-cli EXE --workload NAME --seed N --seconds S --trace 0|1
     main.exe ... --repeat R     (R runs, one seed: median/quartiles/range)

   With --trace 0 the last stdout line is the JSON result carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   taken from an untraced half and a traced half of the run. See
   perfbench/README.md. *)

open Perfbench

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------------- scratch space inside the checkout ---------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR -> Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* ---------------- the client side ---------------- *)

(* Everything a client holds: the owner's list-permutation key (to make
   tokens), the Paillier secret key and the id resolver (to decrypt
   answers), and the plaintext scores (the oracle). *)
type env = {
  w : Data.workload;
  key : Sectopk.Scheme.secret_key;
  sk : Crypto.Paillier.secret;
  wkeys : Proto.Wire.keys;
  resolver : Bignum.Nat.t -> string option;
  scores : int array;
  s1 : Unix.sockaddr;
}

type sample = {
  token_s : float;
  connect_s : float;
  wait_s : float;
  decrypt_s : float;
  total_s : float;  (* token handed over -> decrypted answer in hand *)
  result : (int, string) result;  (* halting depth, or why the query failed *)
  wrong : string option;  (* an answer the oracle rejects *)
}

let read_server env fd =
  match Proto.Wire.read_frame fd with
  | None -> failwith "serve-s1 closed the connection"
  | Some frame -> Proto.Wire.decode_server_msg env.wkeys frame

(* Connect and read the Server_hello, which must announce the shape the
   owner published. *)
let connect env =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd env.s1;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* no query may hang the run *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
    match read_server env fd with
    | Proto.Wire.Server_hello { n; m; _ } when n = env.w.Data.rows && m = env.w.Data.attrs -> fd
    | Proto.Wire.Server_hello { n; m; _ } -> failwith (Printf.sprintf "index shape %d x %d announced" n m)
    | _ -> failwith "expected a Server_hello"
  with e ->
    Unix.close fd;
    raise e

(* Sectopk.Client.open_result would rebuild the id resolver (one PRF per
   object) on every answer; the client here builds it once at set-up and
   decrypts with it. *)
let to_int_signed sk c =
  let v = Crypto.Paillier.decrypt_signed sk c in
  match Bignum.Nat.to_int_opt (Bignum.Bigint.to_nat v) with
  | Some x -> if Bignum.Bigint.sign v < 0 then -x else x
  | None -> failwith "score out of int range"

let decrypt env top =
  List.map
    (fun (it : Proto.Enc_item.scored) ->
      let first = (Ehl.Ehl_plus.cells it.Proto.Enc_item.ehl).(0) in
      let oid =
        match env.resolver (Crypto.Paillier.decrypt env.sk first) with
        | Some id -> int_of_string_opt (String.sub id 1 (String.length id - 1))
        | None -> None
      in
      { Oracle.oid; worst = to_int_signed env.sk it.Proto.Enc_item.worst; best = to_int_signed env.sk it.Proto.Enc_item.best })
    top

(* A client: a persistent connection (opened by its warm-up query) or
   none, when every query dials afresh. *)
type client = { mutable conn : Unix.file_descr option }

let close_client c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.conn;
  c.conn <- None

let one_query env c =
  let w = env.w in
  let t0 = now () in
  let failed msg =
    { token_s = 0.; connect_s = 0.; wait_s = 0.; decrypt_s = 0.; total_s = now () -. t0; result = Error msg; wrong = None }
  in
  match
    let tk = Sectopk.Scheme.token env.key ~m_total:w.Data.attrs (Data.scoring w) ~k:w.Data.k in
    let req = Proto.Wire.encode_client_msg (Proto.Wire.Query_req { token = Sectopk.Codec.encode_token tk }) in
    let t1 = now () in
    let fd =
      match c.conn with
      | Some fd -> fd
      | None ->
        let fd = connect env in
        if not w.Data.churn then c.conn <- Some fd;
        fd
    in
    let t2 = now () in
    let resp =
      Fun.protect
        ~finally:(fun () -> if w.Data.churn then Unix.close fd)
        (fun () ->
          Proto.Wire.write_frame fd req;
          read_server env fd)
    in
    (t1, t2, now (), resp)
  with
  | exception e ->
    close_client c;
    failed (Printexc.to_string e)
  | t1, t2, t3, Proto.Wire.Query_resp { top; halting_depth; _ } -> (
    match decrypt env top with
    | exception e -> failed ("decrypt: " ^ Printexc.to_string e)
    | items ->
      let t4 = now () in
      (* the oracle check is outside the timed interval *)
      let wrong = match Oracle.check ~scores:env.scores ~k:w.Data.k items with Ok () -> None | Error e -> Some e in
      {
        token_s = t1 -. t0;
        connect_s = t2 -. t1;
        wait_s = t3 -. t2;
        decrypt_s = t4 -. t3;
        total_s = t4 -. t0;
        result = (if wrong = None then Ok halting_depth else Error "wrong answer");
        wrong;
      })
  | _, _, _, Proto.Wire.Busy -> failed "Busy"
  | _, _, _, Proto.Wire.Server_error e -> failed ("Server_error: " ^ e)
  | _, _, _, Proto.Wire.Server_hello _ -> failed "unexpected Server_hello"

(* Run [per_client] queries on every client concurrently, each client a
   closed loop on its own domain. The main domain waits in a blocking
   read on a pipe each client writes to when done, where a SIGTERM to
   the bench is still handled (Domain.join would not return to it). *)
let run_clients env clients ~per_client =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r; Unix.close w)
    (fun () ->
      let t0 = now () in
      let doms =
        List.map
          (fun c ->
            Domain.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> ignore (Unix.write_substring w "x" 0 1))
                  (fun () -> List.init per_client (fun _ -> one_query env c))))
          clients
      in
      let buf = Bytes.create 1 in
      let rec await n =
        if n > 0 then
          match Unix.read r buf 0 1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await n
          | _ -> await (n - 1)
      in
      await (List.length doms);
      let t1 = now () in
      (List.concat_map Domain.join doms, t1 -. t0))

let ok s = Result.is_ok s.result

(* ---------------- the deployment ---------------- *)

let key_bits = 128

type deployment = {
  w : Data.workload;
  pseed : string;
  store : string;
  s2 : Daemon.t;
  mutable s1 : Daemon.t;
  mutable s1_answered : int;  (* answers the bench received from this serve-s1 *)
  mutable env : env;
  clients : client list;
  index_bytes : int;
  phases : (string * float) list;  (* setup phase -> seconds *)
  setup_s : float;
}

let spawn_s1 ~exe ~w ~pseed ~store ~s2 extra =
  Daemon.spawn ~name:"serve-s1" ~exe
    ([ "serve-s1"; "--store"; store; "--port"; "0"; "--seed"; pseed; "--key-bits"; string_of_int key_bits;
       "--s2"; Printf.sprintf "127.0.0.1:%d" s2.Daemon.port ]
    @ (if w.Data.coalesce then [] else [ "--coalesce-window-us"; "0" ])
    @ extra)

(* One warm-up query per client on a fresh serve-s1; it must succeed. *)
let warm_up d =
  let samples, wall = run_clients d.env d.clients ~per_client:1 in
  (match List.find_opt (fun s -> not (ok s)) samples with
  | Some { result = Error e; _ } -> failwith ("warm-up query failed: " ^ e)
  | _ -> ());
  d.s1_answered <- d.s1_answered + List.length samples;
  wall

(* Set-up, as timed by setup_s: generate the relation, encrypt and
   publish it, prepare the client, start both daemons (each is ready
   when it prints its listening line), and answer one warm-up query per
   client. *)
let setup ~exe ~tmp ~w ~seed ~rep =
  let store = Filename.concat tmp (Printf.sprintf "index-%d" rep) in
  let t0 = now () in
  let rel = Data.relation w in
  let t_gen = now () in
  let pseed = Data.provision_seed ~seed in
  let pub, sk, ctx_rng, _ = Proto.Ctx.provision ~seed:pseed ~key_bits ~rand_bits:96 () in
  let data_rng = Data.owner_rng w in
  let publish, key =
    if w.Data.shards = 1 then
      let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub rel in
      ((fun () -> Store.build ~dir:store pub er), key)
    else
      let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:w.Data.shards data_rng pub rel in
      ((fun () -> Store.Sharded.build ~dir:store pub ers), key)
  in
  let t_enc = now () in
  publish ();
  let t_pub = now () in
  let ctx = Proto.Ctx.of_keys ~blind_bits:48 ~mode:Proto.Ctx.Inproc ctx_rng pub sk in
  let wkeys = Proto.Transport.keys ctx.Proto.Ctx.transport in
  let resolver = Sectopk.Scheme.make_resolver key ~pub ~ids:(List.init w.Data.rows (Dataset.Relation.object_id rel)) in
  let scores = Data.scores w rel in
  let t_cli = now () in
  let s2 = Daemon.spawn ~name:"serve-s2" ~exe [ "serve-s2"; "--port"; "0" ] in
  let t_s2 = now () in
  let s1 = spawn_s1 ~exe ~w ~pseed ~store ~s2 [] in
  let t_s1 = now () in
  let env = { w; key; sk; wkeys; resolver; scores; s1 = Daemon.addr s1 } in
  let d =
    {
      w; pseed; store; s2; s1; s1_answered = 0; env;
      clients = List.init w.Data.clients (fun _ -> { conn = None });
      index_bytes = 0; phases = []; setup_s = 0.;
    }
  in
  ignore (warm_up d);
  let t_warm = now () in
  {
    d with
    setup_s = t_warm -. t0;
    index_bytes = du store;
    phases =
      [
        ("generate", t_gen -. t0); ("encrypt", t_enc -. t_gen); ("publish", t_pub -. t_enc);
        ("client_init", t_cli -. t_pub); ("s2_ready", t_s2 -. t_cli); ("s1_ready", t_s1 -. t_s2);
        ("warmup_query", t_warm -. t_s1);
      ];
  }

let ints_of s =
  List.filter_map int_of_string_opt
    (String.split_on_char ' '
       (String.map (fun c -> if c >= '0' && c <= '9' then c else ' ') s))

(* Stop serve-s1 and check its drain line "S1: drained — N served, B
   busy, E errors" against the answers the bench received. *)
let stop_s1 d ~clean =
  List.iter close_client d.clients;
  let out = Daemon.stop ~drain_marker:"S1: drained" d.s1 in
  let line = List.find (fun l -> String.length l > 11 && String.sub l 0 11 = "S1: drained") (String.split_on_char '\n' out) in
  match ints_of line with
  | [ 1; served; busy; errors ] | [ served; busy; errors ] ->
    if clean && (served <> d.s1_answered || busy <> 0 || errors <> 0) then
      failwith (Printf.sprintf "serve-s1 drained with %d served, %d busy, %d errors; the bench received %d answers"
                  served busy errors d.s1_answered)
  | _ -> failwith ("unreadable drain line: " ^ line)

let teardown d ~clean =
  stop_s1 d ~clean;
  ignore (Daemon.stop ~drain_marker:"S2: drained" d.s2);
  rm_rf d.store

(* ---------------- one measured window ---------------- *)

type window = {
  samples : sample list;
  wall_s : float;
  s1_before : Obs.Registry.snapshot;
  s1_after : Obs.Registry.snapshot;
  s2_before : Obs.Registry.snapshot;
  s2_after : Obs.Registry.snapshot;
  s1_cpu_s : float;
  s2_cpu_s : float;
  s1_rss_kb : int;
  s2_rss_kb : int;
  steal_s : float;  (* CPU time the hypervisor took from this machine, all CPUs *)
}

let measure d ~per_client =
  let scrape t = Proto.Transport.scrape_stats (Daemon.addr t) in
  let cpu t = Procfs.cpu_seconds (Procfs.cpu t.Daemon.pid) in
  let s1_before = scrape d.s1 and s2_before = scrape d.s2 in
  let c1 = cpu d.s1 and c2 = cpu d.s2 and st = Procfs.steal_seconds () in
  let samples, wall_s = run_clients d.env d.clients ~per_client in
  let steal_s = Procfs.steal_seconds () -. st in
  let s1_cpu_s = cpu d.s1 -. c1 and s2_cpu_s = cpu d.s2 -. c2 in
  let s1_after = scrape d.s1 and s2_after = scrape d.s2 in
  d.s1_answered <- d.s1_answered + List.length (List.filter (fun s -> ok s || s.wrong <> None) samples);
  {
    samples; wall_s; s1_before; s1_after; s2_before; s2_after; s1_cpu_s; s2_cpu_s; steal_s;
    s1_rss_kb = Procfs.peak_rss_kb d.s1.Daemon.pid;
    s2_rss_kb = Procfs.peak_rss_kb d.s2.Daemon.pid;
  }

let completed win = List.length (List.filter ok win.samples)
let per_query win x = if completed win = 0 then 0. else x /. float_of_int (completed win)

(* Stolen CPU time as a share of the machine's CPU time over the window:
   how much of a slow run the host, not the code, explains. *)
let steal_pct win = 100. *. win.steal_s /. (win.wall_s *. float_of_int (Domain.recommended_domain_count ()))

let latencies_ms win = List.filter_map (fun s -> if ok s then Some (s.total_s *. 1000.) else None) win.samples
let p50_ms win = match latencies_ms win with [] -> 0. | l -> Stats.median l

(* The desync tripwire: a served query is deterministic for its token,
   so every query of a run must report the bytes, rounds and depth of
   the first — both in the daemon's registry and in the answers. *)
let exact win name =
  match Regdelta.constant win.s1_after name with
  | Error e -> failwith ("desync: " ^ e)
  | Ok v ->
    let dl = Regdelta.hist_delta ~before:win.s1_before ~after:win.s1_after name in
    if dl.Regdelta.sum <> v * dl.Regdelta.count then failwith ("desync: " ^ name ^ " window sum");
    v

let check_depths win depth =
  List.iter
    (fun s ->
      match s.result with
      | Ok dd when dd <> depth -> failwith (Printf.sprintf "desync: an answer halted at depth %d, not %d" dd depth)
      | _ -> ())
    win.samples

(* ---------------- results ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let end_to_end d win ~setup_s =
  let lat = latencies_ms win in
  let tail, pct = if lat = [] then (0., 0.) else Stats.tail lat in
  let attempted = List.length win.samples in
  ( [
      m "latency_p50_ms" "ms" (p50_ms win);
      m "latency_tail_ms" "ms" tail;
      m "throughput_qps" "1/s" (float_of_int (completed win) /. win.wall_s);
      m "success_rate" "ratio" (float_of_int (completed win) /. float_of_int attempted);
      m "s2_bytes_per_query" "B" (float_of_int (exact win "query_bytes"));
      m "s2_rounds_per_query" "count" (float_of_int (exact win "query_rounds"));
      m "cpu_ms_per_query" "ms" (per_query win ((win.s1_cpu_s +. win.s2_cpu_s) *. 1000.));
      m "peak_rss_mb" "MiB" (float_of_int (win.s1_rss_kb + win.s2_rss_kb) /. 1024.);
      m "setup_s" "s" setup_s;
      m "index_bytes_per_row" "B" (float_of_int d.index_bytes /. float_of_int d.w.Data.rows);
    ],
    Printf.sprintf "latency_tail_ms is p%.1f of %d answered queries; host steal %.1f%% of CPU time" pct
      (List.length lat) (steal_pct win) )

let proto_spans =
  [ ("sec_update", "SecUpdate"); ("sec_refresh", "SecRefresh"); ("sec_worst", "SecWorst"); ("sec_best", "SecBest");
    ("sec_dedup", "SecDedup"); ("enc_sort", "EncSort"); ("enc_compare", "EncCompare"); ("shard_merge", "ShardMerge") ]

let crypto_ops =
  Obs.Metrics.
    [ Paillier_enc; Paillier_dec; Paillier_mul; Paillier_rerand; Dj_enc; Dj_dec; Dj_mul; Dj_rerand; Modexp;
      Modexp_fixed_base; Prf_eval; Rerand_pool ]

let per_layer ~reps ~untraced:u ~traced:t ~ledgers =
  let mean_of f l = match l with [] -> 0. | l -> Stats.mean (List.map f l) in
  let oks = List.filter ok u.samples in
  let client name f = m ("client." ^ name ^ "_ms") "ms" (mean_of (fun s -> f s *. 1000.) oks) in
  let setup_phase name = m ("setup." ^ name ^ "_s") "s" (Stats.median (List.map (fun d -> List.assoc name d.phases) reps)) in
  let hd name = Regdelta.hist_delta ~before:u.s1_before ~after:u.s1_after name in
  let cd name = float_of_int (Regdelta.counter_delta ~before:u.s1_before ~after:u.s1_after name) in
  let exec_ms = Regdelta.mean (hd "exec_us") /. 1000. in
  let s1_cpu_ms = per_query u (u.s1_cpu_s *. 1000.) in
  let depth = float_of_int (exact u "query_depth") in
  let n_led = float_of_int (List.length ledgers) in
  let led f = if ledgers = [] then 0. else List.fold_left (fun acc l -> acc +. f l) 0. ledgers /. n_led in
  let wall_ms = led (fun l -> l.Tracefile.wall_us) /. 1000. in
  let protos = List.map (fun (key, span) -> (key, led (fun l -> Tracefile.self_of l span) /. 1000.)) proto_spans in
  let arg name = led (fun l -> Tracefile.arg_of l name) in
  let hits = arg "cache_hit" and misses = arg "cache_miss" in
  List.map (fun (n, f) -> client n f)
    [ ("token", fun s -> s.token_s); ("connect", fun s -> s.connect_s); ("wait", fun s -> s.wait_s);
      ("decrypt", fun s -> s.decrypt_s) ]
  @ List.map setup_phase
      [ "generate"; "encrypt"; "publish"; "client_init"; "s2_ready"; "s1_ready"; "warmup_query" ]
  @ [
      m "server.exec_ms_mean" "ms" exec_ms;
      m "server.queue_wait_ms_mean" "ms" (Regdelta.mean (hd "queue_wait_us") /. 1000.);
      m "server.busy" "count" (cd "busy");
      m "server.errors" "count" (cd "errors");
      m "sched.trips_per_query" "count" (per_query u (cd "coalesced_rounds"));
      m "sched.rounds_saved_per_query" "count" (per_query u (cd "rounds_saved"));
      m "shard.merge_rounds_per_query" "count" (per_query u (cd "shard_merge_rounds"));
      (* the closing scrape's own connection is in the delta *)
      m "s2.connections_per_query" "count"
        (per_query u (float_of_int (Regdelta.counter_delta ~before:u.s2_before ~after:u.s2_after "connections" - 1)));
      m "s1.cpu_ms_per_query" "ms" s1_cpu_ms;
      m "s2.cpu_ms_per_query" "ms" (per_query u (u.s2_cpu_s *. 1000.));
      m "s1.offcpu_ms_per_query" "ms" (exec_ms -. s1_cpu_ms);
      m "s1.peak_rss_mb" "MiB" (float_of_int u.s1_rss_kb /. 1024.);
      m "s2.peak_rss_mb" "MiB" (float_of_int u.s2_rss_kb /. 1024.);
      m "host.steal_pct" "%" (steal_pct u);
    ]
  @ List.map (fun (key, v) -> m ("proto." ^ key ^ "_ms") "ms" v) protos
  @ [
      m "query.depth" "count" depth;
      m "query.ms_per_depth" "ms" (wall_ms /. depth);
    ]
  @ List.map (fun op -> m ("crypto." ^ Obs.Metrics.name op ^ "_per_query") "count" (arg (Obs.Metrics.name op))) crypto_ops
  @ [
      m "store.read_bytes_per_query" "B" (arg "store_read_bytes");
      m "store.cache_hit_ratio" "ratio" (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
      m "trace.wall_ms" "ms" wall_ms;
      m "trace.unattributed_ms" "ms" (wall_ms -. List.fold_left (fun acc (_, v) -> acc +. v) 0. protos);
      m "trace.overhead_pct" "%" (100. *. (p50_ms t -. p50_ms u) /. p50_ms u);
    ]

(* ---------------- one run ---------------- *)

(* Set-up is repeated and its median reported; the last deployment
   serves the timed phase. One set-up is a second or two, dominated by
   a warm-up query or the encryption, and swings with the host's CPU
   speed; five keep the median steady. *)
let setups = 5

type outcome = { metrics : metric list; note : string; samples : sample list }

(* Per-query Chrome traces of the traced half. serve-s1 writes query
   [seq]'s trace to slot [seq mod 8] before answering it; the warm-up
   queries took the first [clients] sequence numbers, so the timed
   queries' traces are the last [min 8 timed] slots written. *)
let read_ledgers ~trace_dir ~clients ~timed =
  let first = clients + timed - min Server.Qlog.trace_slots timed in
  List.init (clients + timed - first) (fun i ->
      let seq = first + i in
      let file = Filename.concat trace_dir (Printf.sprintf "trace-%d.json" (seq mod Server.Qlog.trace_slots)) in
      Tracefile.ledger (Tracefile.events_of_string (Procfs.read_file file)))

let count_ok_lines file =
  List.length
    (List.filter (fun l -> Daemon.contains l "\"outcome\":\"ok\"") (String.split_on_char '\n' (Procfs.read_file file)))

let run_once ~exe ~tmp ~w ~seed ~seconds ~trace =
  let n = Data.queries w ~seconds in
  let reps =
    List.init setups (fun rep ->
        let d = setup ~exe ~tmp ~w ~seed ~rep in
        if rep < setups - 1 then teardown d ~clean:true;
        d)
  in
  let d = List.nth reps (setups - 1) in
  let setup_s = Stats.median (List.map (fun d -> d.setup_s) reps) in
  let clients = w.Data.clients in
  let clean (win : window) = List.for_all ok win.samples in
  if not trace then begin
    let win = measure d ~per_client:(n / clients) in
    check_depths win (exact win "query_depth");
    let metrics, note = end_to_end d win ~setup_s in
    teardown d ~clean:(clean win);
    { metrics; note; samples = win.samples }
  end
  else begin
    (* untraced half: registry, /proc and client figures *)
    let per_client = max 1 (n / clients / 2) in
    let u = measure d ~per_client in
    check_depths u (exact u "query_depth");
    stop_s1 d ~clean:(clean u);
    (* traced half: the same deployment behind a serve-s1 that records
       spans, samples every query's trace and logs every query *)
    let trace_dir = Filename.concat tmp "traces" and qlog = Filename.concat tmp "queries.jsonl" in
    d.s1 <-
      spawn_s1 ~exe ~w ~pseed:d.pseed ~store:d.store ~s2:d.s2
        [ "--metrics"; "--trace-sample"; "1"; "--trace-dir"; trace_dir; "--log-json"; qlog ];
    d.s1_answered <- 0;
    d.env <- { d.env with s1 = Daemon.addr d.s1 };
    ignore (warm_up d);
    let t = measure d ~per_client in
    check_depths t (exact u "query_depth");
    teardown d ~clean:(clean t);
    let timed = per_client * clients in
    if clean t && count_ok_lines qlog <> clients + timed then failwith "query log does not list every traced query";
    let ledgers = read_ledgers ~trace_dir ~clients ~timed in
    let metrics = per_layer ~reps ~untraced:u ~traced:t ~ledgers in
    { metrics; note = Printf.sprintf "traced ledger over the last %d of %d traced queries" (List.length ledgers) timed;
      samples = u.samples @ t.samples }
  end

(* ---------------- output ---------------- *)

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "a metric is not a finite number"

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", "
       (List.map (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number x.value) x.unit_) metrics))

let print_table metrics =
  List.iter (fun x -> Printf.printf "%-40s %16.4f %s\n" x.name x.value x.unit_) metrics

(* --repeat: the same workload and seed R times; per metric the median,
   quartiles, range and the quartile spread as a share of the median. *)
let print_repeat runs =
  Printf.printf "%-40s %-6s %12s %12s %12s %12s %12s %8s\n" "metric" "unit" "median" "q1" "q3" "min" "max" "iqr/med";
  List.iter
    (fun x ->
      let vs = List.map (fun r -> (List.find (fun y -> y.name = x.name) r).value) runs in
      let med = Stats.median vs in
      let q1, q3 =
        match if List.length vs >= 2 then Stats.quartiles vs else [ med; med; med ] with
        | [ q1; _; q3 ] -> (q1, q3)
        | _ -> assert false
      in
      Printf.printf "%-40s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %7.2f%%\n" x.name x.unit_ med q1 q3
        (List.fold_left min infinity vs) (List.fold_left max neg_infinity vs)
        (if med = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs med))
    (List.hd runs)

(* Log every failed query; true when no answer was wrong. *)
let report_failures o =
  List.iter
    (fun s ->
      match (s.wrong, s.result) with
      | Some e, _ -> log "perfbench: WRONG ANSWER: %s" e
      | None, Error e -> log "perfbench: failed query: %s" e
      | None, Ok _ -> ())
    o.samples;
  List.for_all (fun s -> s.wrong = None) o.samples

let () =
  let exe = ref "" and workload = ref "" and seed = ref "" and seconds = ref 20 and trace = ref 0 and repeat = ref 0 in
  Arg.parse
    [
      ("--topk-cli", Arg.Set_string exe, "EXE the built topk_cli executable");
      ("--workload", Arg.Set_string workload, "NAME deep-solo | deep-pair | shallow-churn");
      ("--seed", Arg.Set_string seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length; sets the fixed query count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--repeat", Arg.Set_int repeat, "R run R times with one seed and print the spread");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --topk-cli EXE --workload NAME --seed N --seconds S --trace 0|1 [--repeat R]";
  let w =
    match Data.find !workload with
    | Some w -> w
    | None ->
      log "perfbench: unknown workload %S" !workload;
      exit 2
  in
  if !exe = "" || !seed = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    log "perfbench: --topk-cli, --seed, --seconds >= 1 and --trace 0|1 are required";
    exit 2
  end;
  let tmp = Filename.concat ".perfbench_tmp" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  at_exit (fun () ->
      Daemon.kill_all ();
      (try rm_rf tmp with _ -> ());
      try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ());
  let on_signal = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let once () =
    rm_rf tmp;
    mkdir_p tmp;
    run_once ~exe:!exe ~tmp ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  try
    if !repeat > 0 then begin
      let runs =
        List.init !repeat (fun i ->
            let o = once () in
            if not (report_failures o) then exit 1;
            log "run %d/%d: p50 %s ms" (i + 1) !repeat
              (match List.find_opt (fun x -> x.name = "latency_p50_ms") o.metrics with
              | Some x -> Printf.sprintf "%.1f" x.value
              | None -> "-");
            o.metrics)
      in
      print_repeat runs
    end
    else begin
      let o = once () in
      let correct = report_failures o in
      Printf.printf "workload %s, seed %s: %s\n" w.Data.name !seed o.note;
      print_table o.metrics;
      let failed = List.length (List.filter (fun s -> not (ok s)) o.samples) in
      print_endline
        (json_result ~correct ~attempted:(List.length o.samples) ~failed o.metrics);
      if not correct then exit 1
    end
  with e ->
    log "perfbench: error: %s" (Printexc.to_string e);
    exit 1
