(* The benchmark's own arithmetic: quantiles and the tail rule, registry
   deltas, /proc parsing, the oracle comparison and the trace ledger. *)

open Perfbench

let feq = Alcotest.float 1e-9
let floats = Alcotest.(list (float 1e-9))

(* ---- Stats ---- *)

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "single" 7. (Stats.median [ 7. ])

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "three" [ 1.; 2.; 3. ] (Stats.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check floats "two extrapolate" [ 0.; 3.; 6. ] (Stats.quartiles [ 5.; 1. ]);
  Alcotest.check floats "seven" [ 1.25; 3.5; 8. ] (Stats.quartiles [ 0.5; 9.25; 3.5; 7.; 1.25; 2.; 8. ])

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) (* n, n-1, ..., 1 *) in
  (* 24 samples: the 14th smallest has exactly ten above it *)
  let v, p = Stats.tail (xs 24) in
  Alcotest.check feq "24 value" 14. v;
  Alcotest.check feq "24 pct" (100. *. 14. /. 24.) p;
  let v, p = Stats.tail (xs 20) in
  Alcotest.check feq "20 value" 10. v;
  Alcotest.check feq "20 pct" 50. p;
  let v, p = Stats.tail (xs 1000) in
  Alcotest.check feq "1000 value" 990. v;
  Alcotest.check feq "1000 pct" 99. p;
  let above v l = List.length (List.filter (fun x -> x > v) l) in
  List.iter
    (fun n -> Alcotest.(check int) "ten beyond" 10 (above (fst (Stats.tail (xs n))) (xs n)))
    [ 11; 24; 57; 126 ];
  let v, p = Stats.tail [ 2.; 9.; 4. ] in
  Alcotest.check feq "few: max" 9. v;
  Alcotest.check feq "few: p100" 100. p

(* ---- Regdelta ---- *)

let hist ~count ~sum ~lo ~hi =
  Obs.Registry.Histogram { hcount = count; hsum = sum; hmin = lo; hmax = hi; hbuckets = [ (hi, count) ] }

let test_regdelta () =
  let before = [ ("exec_us", hist ~count:2 ~sum:300 ~lo:100 ~hi:200); ("served", Obs.Registry.Counter 2) ] in
  let after =
    [
      ("coalesced_rounds", Obs.Registry.Counter 40);
      ("exec_us", hist ~count:5 ~sum:1200 ~lo:100 ~hi:400);
      ("served", Obs.Registry.Counter 5);
    ]
  in
  Alcotest.(check int) "counter" 3 (Regdelta.counter_delta ~before ~after "served");
  Alcotest.(check int) "absent before" 40 (Regdelta.counter_delta ~before ~after "coalesced_rounds");
  Alcotest.(check int) "absent both" 0 (Regdelta.counter_delta ~before ~after "rounds_saved");
  let d = Regdelta.hist_delta ~before ~after "exec_us" in
  Alcotest.(check (pair int int)) "hist" (3, 900) (d.Regdelta.count, d.Regdelta.sum);
  Alcotest.check feq "mean" 300. (Regdelta.mean d);
  Alcotest.check feq "empty mean" 0. (Regdelta.mean (Regdelta.hist_delta ~before ~after "queue_wait_us"))

let test_constant () =
  let snap = [ ("b", hist ~count:4 ~sum:400 ~lo:100 ~hi:100); ("r", hist ~count:3 ~sum:31 ~lo:10 ~hi:11) ] in
  Alcotest.(check (result int string)) "constant" (Ok 100) (Regdelta.constant snap "b");
  Alcotest.(check bool) "desync" true (Result.is_error (Regdelta.constant snap "r"));
  Alcotest.(check bool) "missing" true (Result.is_error (Regdelta.constant snap "x"))

(* ---- Procfs ---- *)

let test_stat () =
  let line =
    "4242 (topk cli) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 857 143 0 0 20 0 5 0 99 1000 50 \
     18446744073709551615"
  in
  let c = Procfs.parse_stat line in
  Alcotest.(check (pair int int)) "utime, stime" (857, 143) (c.Procfs.utime, c.Procfs.stime);
  Alcotest.check feq "seconds" 10. (Procfs.cpu_seconds c);
  Alcotest.check_raises "truncated" (Invalid_argument "Procfs.parse_stat: truncated line") (fun () ->
      ignore (Procfs.parse_stat "1 (a) S 1 2 3"))

let test_vmhwm () =
  let status = "Name:\ttopk_cli.exe\nVmPeak:\t  900000 kB\nVmHWM:\t   41872 kB\nVmRSS:\t   40000 kB\n" in
  Alcotest.(check int) "kB" 41872 (Procfs.parse_vmhwm_kb status);
  Alcotest.(check bool) "absent" true
    (match Procfs.parse_vmhwm_kb "Name:\tx\n" with _ -> false | exception Invalid_argument _ -> true)

let test_steal () =
  let stat = "cpu  1971367 0 63753 2552721 2656 0 40222 116639 0 0\ncpu0 985000 0 31000 1276000 1300 0 20000 58000 0 0\n" in
  Alcotest.(check int) "steal ticks" 116639 (Procfs.parse_steal stat);
  Alcotest.(check bool) "no cpu line" true
    (match Procfs.parse_steal "intr 1 2\n" with _ -> false | exception Invalid_argument _ -> true)

let test_own_process () =
  let c = Procfs.cpu (Unix.getpid ()) in
  Alcotest.(check bool) "non-negative" true (c.Procfs.utime >= 0 && c.Procfs.stime >= 0);
  Alcotest.(check bool) "rss" true (Procfs.peak_rss_kb (Unix.getpid ()) > 0);
  Alcotest.(check bool) "steal" true (Procfs.steal_seconds () >= 0.)

(* ---- Oracle ---- *)

let it ?(worst = 0) ?(best = 1000) oid = { Oracle.oid; worst; best }
let ok r = Result.is_ok r

let test_oracle () =
  let scores = [| 10; 50; 30; 50; 20 |] in
  Alcotest.(check bool) "top-2" true (ok (Oracle.check ~scores ~k:2 [ it (Some 1); it (Some 3) ]));
  Alcotest.(check bool) "order free" true (ok (Oracle.check ~scores ~k:2 [ it (Some 3); it (Some 1) ]));
  Alcotest.(check bool) "tie at threshold" true
    (ok (Oracle.check ~scores ~k:1 [ it (Some 3) ]) && ok (Oracle.check ~scores ~k:1 [ it (Some 1) ]));
  Alcotest.(check bool) "below k-th" false (ok (Oracle.check ~scores ~k:2 [ it (Some 1); it (Some 2) ]));
  Alcotest.(check bool) "duplicate" false (ok (Oracle.check ~scores ~k:2 [ it (Some 1); it (Some 1) ]));
  Alcotest.(check bool) "unresolved" false (ok (Oracle.check ~scores ~k:2 [ it (Some 1); it None ]));
  Alcotest.(check bool) "too few" false (ok (Oracle.check ~scores ~k:2 [ it (Some 1) ]));
  Alcotest.(check bool) "out of range" false (ok (Oracle.check ~scores ~k:1 [ it (Some 9) ]));
  Alcotest.(check bool) "bounds hold" true (ok (Oracle.check ~scores ~k:1 [ it ~worst:50 ~best:50 (Some 1) ]));
  Alcotest.(check bool) "worst above score" false (ok (Oracle.check ~scores ~k:1 [ it ~worst:51 (Some 1) ]));
  Alcotest.(check bool) "best below score" false (ok (Oracle.check ~scores ~k:1 [ it ~best:49 (Some 1) ]));
  Alcotest.(check bool) "k > n" true
    (ok (Oracle.check ~scores:[| 1; 2 |] ~k:5 [ it (Some 0); it (Some 1) ]))

(* ---- Tracefile ---- *)

let trace =
  {|{"traceEvents":[
{"name":"serve:query","ph":"X","ts":0.0,"dur":100.0,"pid":1,"tid":1,"args":{"paillier_encrypt":7,"cache_hit":3}},
{"name":"SecQuery","ph":"X","ts":1.0,"dur":98.0,"pid":1,"tid":1},
{"name":"depth:1","ph":"X","ts":2.0,"dur":60.0,"pid":1,"tid":1},
{"name":"SecWorst","ph":"X","ts":3.0,"dur":30.0,"pid":1,"tid":1,"args":{"paillier_encrypt":2}},
{"name":"EncCompare","ph":"X","ts":10.0,"dur":10.0,"pid":1,"tid":1},
{"name":"SecUpdate","ph":"X","ts":33.0,"dur":20.0,"pid":1,"tid":1},
{"name":"depth:2","ph":"X","ts":62.0,"dur":30.0,"pid":1,"tid":1},
{"name":"SecUpdate","ph":"X","ts":63.0,"dur":25.05,"pid":1,"tid":1},
{"name":"q\"xA","ph":"i","ts":5.0,"pid":1,"tid":1}
]}|}

let test_ledger () =
  let evs = Tracefile.events_of_string trace in
  Alcotest.(check int) "complete events only" 8 (List.length evs);
  let l = Tracefile.ledger evs in
  Alcotest.check feq "wall" 100. l.Tracefile.wall_us;
  Alcotest.check feq "root self" 2. (Tracefile.self_of l "serve:query");
  Alcotest.check feq "SecWorst self" 20. (Tracefile.self_of l "SecWorst");
  Alcotest.check feq "EncCompare self" 10. (Tracefile.self_of l "EncCompare");
  Alcotest.check feq "SecUpdate summed" 45.05 (Tracefile.self_of l "SecUpdate");
  Alcotest.check feq "depth:1 self" 10. (Tracefile.self_of l "depth:1");
  Alcotest.check feq "self times add up to the wall" l.Tracefile.wall_us
    (List.fold_left (fun acc (_, v) -> acc +. v) 0. l.Tracefile.self_us);
  Alcotest.check feq "root args" 7. (Tracefile.arg_of l "paillier_encrypt");
  Alcotest.check feq "absent arg" 0. (Tracefile.arg_of l "cache_miss")

let test_two_roots () =
  let ev name ts dur = { Tracefile.name; ts; dur; args = [] } in
  let l = Tracefile.ledger [ ev "b" 50. 10.; ev "a" 0. 40.; ev "c" 5. 5. ] in
  Alcotest.check feq "wall" 50. l.Tracefile.wall_us;
  Alcotest.check feq "a self" 35. (Tracefile.self_of l "a");
  Alcotest.check feq "b self" 10. (Tracefile.self_of l "b")

let test_json_errors () =
  let bad s = match Tracefile.parse_json s with _ -> false | exception Tracefile.Parse_error _ -> true in
  Alcotest.(check bool) "trailing" true (bad "{} x");
  Alcotest.(check bool) "unterminated" true (bad {|{"a":"b|});
  Alcotest.(check bool) "no events" true
    (match Tracefile.events_of_string "{}" with _ -> false | exception Tracefile.Parse_error _ -> true);
  Alcotest.(check bool) "escape" true
    (Tracefile.parse_json {|["q\"A\n"]|} = Tracefile.Arr [ Tracefile.Str "q\"A\n" ])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
        ] );
      ( "registry",
        [
          Alcotest.test_case "before/after deltas" `Quick test_regdelta;
          Alcotest.test_case "constant per-query values" `Quick test_constant;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "stat utime stime" `Quick test_stat;
          Alcotest.test_case "status VmHWM" `Quick test_vmhwm;
          Alcotest.test_case "stat steal" `Quick test_steal;
          Alcotest.test_case "own process" `Quick test_own_process;
        ] );
      ("oracle", [ Alcotest.test_case "top-k comparison" `Quick test_oracle ]);
      ( "trace",
        [
          Alcotest.test_case "self-time ledger" `Quick test_ledger;
          Alcotest.test_case "several roots" `Quick test_two_roots;
          Alcotest.test_case "json errors" `Quick test_json_errors;
        ] );
    ]
