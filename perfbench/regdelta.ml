(* Before/after differences of a daemon's key-less registry scrape.
   Only exact figures are taken from a registry — counters and the sums
   and counts of histograms. Bucketed quantiles over-estimate by up to
   12.5% and are never used. *)

open Obs.Registry

let counter (snap : snapshot) name =
  match List.assoc_opt name snap with Some (Counter v) -> v | _ -> 0

let hist (snap : snapshot) name =
  match List.assoc_opt name snap with Some (Histogram d) -> Some d | _ -> None

let counter_delta ~before ~after name = counter after name - counter before name

type hdelta = { count : int; sum : int }

let hist_delta ~before ~after name =
  let get s = match hist s name with Some d -> (d.hcount, d.hsum) | None -> (0, 0) in
  let c0, s0 = get before and c1, s1 = get after in
  { count = c1 - c0; sum = s1 - s0 }

(* Mean per observation over the window; 0 when nothing was observed. *)
let mean d = if d.count = 0 then 0. else float_of_int d.sum /. float_of_int d.count

(* A served query is deterministic for a given token, so every
   observation of a per-query size must be the same number. The
   histogram keeps exact extremes: min = max over the daemon's whole
   life proves it, and the common value is returned. *)
let constant (snap : snapshot) name =
  match hist snap name with
  | None | Some { hcount = 0; _ } -> Error (name ^ ": no observations")
  | Some d ->
    if d.hmin <> d.hmax then
      Error (Printf.sprintf "%s: per-query values differ (min %d, max %d)" name d.hmin d.hmax)
    else if d.hsum <> d.hmin * d.hcount then
      Error (Printf.sprintf "%s: sum %d is not %d x %d" name d.hsum d.hcount d.hmin)
    else Ok d.hmin
