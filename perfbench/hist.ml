(* Log-linear latency histogram over nanoseconds: exact below 256 ns, then
   256 sub-buckets per power of two, so a reported percentile is within
   0.4% of the recorded value.  Recording is a short shift loop and one
   array increment; it allocates nothing, so it can sit inside the
   measured loop without moving the GC metrics. *)

let sub_bits = 8
let sub = 1 lsl sub_bits

(* Highest index: shift = 62 - sub_bits, mantissa < 2 * sub. *)
let buckets = ((62 - sub_bits) lsl sub_bits) + (2 * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make buckets 0; n = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < sub then if v < 0 then 0 else v
  else
    let shift = msb v 0 - sub_bits in
    (shift lsl sub_bits) + (v lsr shift)

(* Midpoint of bucket [i]'s value range. *)
let value_of i =
  if i < 2 * sub then float_of_int i
  else
    let shift = (i lsr sub_bits) - 1 in
    let low = (i - (shift lsl sub_bits)) lsl shift in
    float_of_int low +. (float_of_int ((1 lsl shift) - 1) /. 2.)

let record t v =
  let i = index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  t.n <- t.n + 1

let count t = t.n

(* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty histogram. *)
let percentile t p =
  if t.n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
    let rec go i acc =
      let acc = acc + t.counts.(i) in
      if acc >= rank || i = buckets - 1 then value_of i else go (i + 1) acc
    in
    go 0 0

let clear t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0

