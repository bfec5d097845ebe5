(* Summary statistics over one run's samples. Quantiles follow Python's
   [statistics] module, so a figure printed here can be checked against
   the spread rule that judges the benchmark. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* statistics.median: the middle value, or the mean of the two middle
   values. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(xs, n=4), default 'exclusive' method: the three
   cut points [q1; q2; q3]. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]

(* The tail figure: the highest nearest-rank percentile that still has
   at least ten samples above it. With [n] samples that is the
   (n-10)-th smallest, i.e. percentile 100(n-10)/n. Below eleven samples
   no percentile qualifies and the maximum is reported as p100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples"
  else if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)
