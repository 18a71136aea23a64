(* Shared machinery for the three workloads: clock, seeded draws,
   percentiles, counter deltas, in-memory spans and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Process CPU seconds, all domains: steal and waits are not in it. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The calibration kernel: fixed work in plain OCaml (a hash table, a
   balanced map, list folds), independent of the system under test. On a
   shared host the CPU speed a process gets can drift by tens of percent
   within minutes; the kernel's CPU time, taken next to each measurement,
   tracks that drift, and the gated CPU costs are expressed in units of
   it. *)
module Int_map = Map.Make (Int)

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4095 do
    Hashtbl.replace h ((i * 7919) land 8191) i
  done;
  let acc = ref 0 in
  for i = 0 to 4095 do
    match Hashtbl.find_opt h i with Some v -> acc := !acc + v | None -> ()
  done;
  let m = ref Int_map.empty in
  for i = 0 to 2047 do
    m := Int_map.add ((i * 31) land 4095) i !m
  done;
  acc := !acc + Int_map.cardinal !m + List.fold_left ( + ) 0 (List.rev (List.init 2048 Fun.id));
  ignore (Sys.opaque_identity !acc)

(* CPU seconds of one kernel call, over ten calls. *)
let calibrate () =
  let c0 = cpu_s () in
  for _ = 1 to 10 do
    kernel ()
  done;
  (cpu_s () -. c0) /. 10.

(* Time a set-up after a full collection; returns it and its seconds. *)
let timed_setup f =
  Gc.full_major ();
  let x, ns = time_ns f in
  (x, secs_of_ns ns)


(* ---------------- seeded draws ---------------- *)

(* Zipfian choice over [0, n) with exponent [s]: a cumulative table and a
   binary search, so rank 0 is the hottest key. *)
type zipf = float array

let zipf ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw (cdf : zipf) rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------------- samples ---------------- *)

(* A fixed-capacity sample buffer: preallocated, so the benchmark's own
   bookkeeping does not grow the heap with throughput. *)
type samples = { mutable n : int; v : Float.Array.t }

let samples cap = { n = 0; v = Float.Array.make (max 1 cap) 0. }
let clear s = s.n <- 0

let add s x =
  if s.n < Float.Array.length s.v then begin
    Float.Array.set s.v s.n x;
    s.n <- s.n + 1
  end

let sorted s =
  let a = Float.Array.sub s.v 0 s.n in
  Float.Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in [0, 1]. *)
let pct a p =
  let n = Float.Array.length a in
  if n = 0 then nan
  else Float.Array.get a (min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ---------------- counters ---------------- *)

let get counters k = try List.assoc k counters with Not_found -> 0

(* Sum of a per-store counter over the object and trigger stores. *)
let stores counters k = get counters ("objects." ^ k) + get counters ("triggers." ^ k)

let delta ~before ~after =
  List.map (fun (k, v) -> (k, v - get before k)) after

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------- spans ---------------- *)

(* Spans recorded around each public call the benchmark makes: name,
   start, end, parent span and request id, kept in growable arrays and
   written out when the run ends. Self time is a span's duration minus
   its children's. *)
module Trace = struct
  (* Span fields live in Bigarrays, outside the OCaml heap, so a long
     trace adds no garbage-collector work to the run it measures. *)
  type col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable len : int;
    mutable name : col;
    mutable start : col;
    mutable stop : col;
    mutable parent : col;
    mutable req : col;
    names : (string, int) Hashtbl.t;
    mutable rev : string list;
  }

  let col n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  let create () =
    let n = 65536 in
    {
      len = 0;
      name = col n;
      start = col n;
      stop = col n;
      parent = col n;
      req = col n;
      names = Hashtbl.create 16;
      rev = [];
    }

  let name_id t n =
    match Hashtbl.find_opt t.names n with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.names in
        Hashtbl.add t.names n i;
        t.rev <- n :: t.rev;
        i

  let grow t =
    let g a =
      let b = col (2 * Bigarray.Array1.dim a) in
      Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 (Bigarray.Array1.dim a));
      b
    in
    t.name <- g t.name;
    t.start <- g t.start;
    t.stop <- g t.stop;
    t.parent <- g t.parent;
    t.req <- g t.req

  (* Record a span whose endpoints are known; returns its index. *)
  let record t ~name ~parent ~req ~start ~stop =
    if t.len = Bigarray.Array1.dim t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.{i} <- name;
    t.start.{i} <- start;
    t.stop.{i} <- stop;
    t.parent.{i} <- parent;
    t.req.{i} <- req;
    i

  (* Open a span now; [parent] = -1 for a root. *)
  let open_ t ~name ~parent ~req = record t ~name ~parent ~req ~start:(now_ns ()) ~stop:0
  let close t i = t.stop.{i} <- now_ns ()

  let span t ~name ~parent ~req f =
    let i = open_ t ~name ~parent ~req in
    match f () with
    | v ->
        close t i;
        v
    | exception e ->
        close t i;
        raise e

  let names t = Array.of_list (List.rev t.rev)

  (* Per span name: (count, total duration ns, total self ns). *)
  let summary t =
    let child = Array.make t.len 0 in
    for i = 0 to t.len - 1 do
      let p = t.parent.{i} in
      if p >= 0 then child.(p) <- child.(p) + (t.stop.{i} - t.start.{i})
    done;
    let k = Hashtbl.length t.names in
    let cnt = Array.make k 0 and dur = Array.make k 0 and self = Array.make k 0 in
    for i = 0 to t.len - 1 do
      let n = t.name.{i} and d = t.stop.{i} - t.start.{i} in
      cnt.(n) <- cnt.(n) + 1;
      dur.(n) <- dur.(n) + d;
      self.(n) <- self.(n) + d - child.(i)
    done;
    let nm = names t in
    Array.to_list (Array.init k (fun i -> (nm.(i), (cnt.(i), dur.(i), self.(i)))))

  let write t path =
    let nm = names t in
    let oc = open_out path in
    output_string oc "span\tname\tstart_ns\tend_ns\tparent\treq\n";
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i nm.(t.name.{i}) t.start.{i} t.stop.{i}
        t.parent.{i} t.req.{i}
    done;
    close_out oc
end

(* ---------------- output ---------------- *)

let out_dir = ".odebench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ())

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Human-readable report lines go to stdout ahead of the result line. *)
let line fmt = Printf.printf (fmt ^^ "\n%!")

type metric = { m_name : string; m_value : float; m_unit : string }

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        if not (Float.is_finite m.m_value) then failwith ("odebench: metric " ^ m.m_name ^ " is not a number");
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.m_value m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

type outcome = { correct : bool; attempted : int; failed : int; metrics : metric list }

let m m_name m_value m_unit = { m_name; m_value; m_unit }

let group_mode () =
  match Ode_storage.Commit_pipeline.mode_of_string "group" with
  | Ok mode -> mode
  | Error e -> failwith e

(* Bytes of user payload in a field value: what the application stored. *)
let rec value_bytes (v : Ode_objstore.Value.t) =
  match v with
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ | Oid _ -> 8
  | Str s -> String.length s
  | List l -> List.fold_left (fun a x -> a + value_bytes x) 0 l

(* The crash image a crash right now would leave: the durable WAL
   prefixes of both stores, read without disturbing the session. *)
let live_image ~kind env =
  let module S = Ode.Session in
  let objects, triggers = S.stores env in
  S.image_of_wals ~kind
    ~obj:(Ode_storage.Wal.durable_bytes objects.Ode_storage.Store.wal)
    ~trig:(Ode_storage.Wal.durable_bytes triggers.Ode_storage.Store.wal)

let image_mb image =
  let obj, trig = Ode.Session.image_wals image in
  float_of_int (Bytes.length obj + Bytes.length trig) /. 1e6

(* One recovery: wall seconds, and its CPU time in calibration-kernel
   units measured right after it. *)
type recovery = { secs : float; cal : float }

(* Time one [Session.recover] of [image] (from a fresh copy of its WAL
   prefixes), schema redefinition included; returns the timing and the
   recovered environment. *)
let recover_once ~kind ~durability ~define image =
  let module S = Ode.Session in
  let obj, trig = S.image_wals image in
  let img = S.image_of_wals ~kind ~obj:(Bytes.copy obj) ~trig:(Bytes.copy trig) in
  Gc.full_major ();
  let c0 = cpu_s () in
  let env, ns =
    time_ns (fun () ->
        let env = S.recover ~durability img in
        define env;
        env)
  in
  let cpu = cpu_s () -. c0 in
  ({ secs = secs_of_ns ns; cal = cpu /. calibrate () }, env)

(* Checkpoint until a full anchor is laid, so the end-of-run image sits
   at a fixed place in the incremental checkpoint chain. *)
let checkpoint_full env =
  let fulls () = stores (Ode.Session.counters env) "ckpt_fulls" in
  let f0 = fulls () in
  while fulls () = f0 do
    Ode.Session.checkpoint env
  done

(* Bytes the stores retain — pages plus retained WAL, both stores —
   over the application's live payload bytes. *)
let stored_ratio ~page_size counters ~user_bytes =
  let pages = stores counters "pages" * page_size in
  let wal = stores counters "wal_footprint" in
  float_of_int (pages + wal) /. float_of_int (max 1 user_bytes)

(* Traced runs alternate untraced and traced rounds so both see the same
   host conditions. *)
let trace_rounds = 10

(* [loop ~traced ~seconds ?txns ()] runs one round and returns (ops,
   elapsed s). Returns traced ops, untraced ops/s and traced ops/s. *)
let alternate ~seconds ?txns loop =
  let per = seconds /. float_of_int (2 * trace_rounds) in
  let per_txns = Option.map (fun k -> max 1 (k / (2 * trace_rounds))) txns in
  let n0 = ref 0 and e0 = ref 0. and n1 = ref 0 and e1 = ref 0. in
  for _ = 1 to trace_rounds do
    let n, e = loop ~traced:false ~seconds:per ?txns:per_txns () in
    n0 := !n0 + n;
    e0 := !e0 +. e;
    let n, e = loop ~traced:true ~seconds:per ?txns:per_txns () in
    n1 := !n1 + n;
    e1 := !e1 +. e
  done;
  (!n1, float_of_int !n0 /. !e0, float_of_int !n1 /. !e1)

(* Timed phases run as [slices] back-to-back slices; each end-to-end
   figure is the median over the slices, so a burst of host noise moves
   a few slices, not the figure. *)
let slices = 20

type slice = {
  rate : float;
  p50 : float;
  p99 : float;
  n : int;
  late99 : float; (* open-loop generator lateness p99, us; 0 in a closed loop *)
  cpu_us : float; (* process CPU time per op, us *)
  cal_us : float; (* CPU time of one calibration-kernel call after the slice, us *)
}

(* [run ~seconds ?txns lats] runs one slice, adding a latency sample per
   op to [lats]; returns (ops, elapsed s). *)
let sliced ?(between = fun _ -> ()) ~seconds ?txns ~cap run =
  let lats = samples cap in
  let per = seconds /. float_of_int slices in
  let per_txns = Option.map (fun k -> max 1 (k / slices)) txns in
  List.init slices (fun i ->
      clear lats;
      let c0 = cpu_s () in
      let n, el = run ~seconds:per ?txns:per_txns lats in
      let cpu_us = (cpu_s () -. c0) *. 1e6 /. float_of_int (max 1 n) in
      let s = sorted lats in
      between i;
      {
        rate = float_of_int n /. el;
        p50 = pct s 0.5;
        p99 = pct s 0.99;
        n = lats.n;
        late99 = 0.;
        cpu_us;
        cal_us = calibrate () *. 1e6;
      })

(* Set-up and recovery are short, so a single host hiccup can swamp
   them: each run repeats them between slices, off the clock — a set-up
   after every other slice, a recovery after every slice — and reports
   the median, so the repeats spread over the whole timed phase. *)
let extra_setup_after i = i mod 2 = 0

let med f sl = median (List.map f sl)

let slice_lines name sl =
  List.iteri
    (fun i s ->
      line
        "%s slice %2d: %.1f ops/s, %.2f cpu us/op, calibration %.1f us, p50 %.1f us, p99 %.1f us over %d, \
         generator late p99 %.1f us"
        name i s.rate s.cpu_us s.cal_us s.p50 s.p99 s.n s.late99)
    sl

let slice_report name sl =
  line
    "%s: %d slices, median %.1f ops/s (min %.1f, max %.1f), %.2f cpu us/op; p50 %.1f us, p99 %.1f us \
     (medians); %d latency samples"
    name (List.length sl) (med (fun s -> s.rate) sl)
    (List.fold_left (fun a s -> Float.min a s.rate) infinity sl)
    (List.fold_left (fun a s -> Float.max a s.rate) 0. sl)
    (med (fun s -> s.cpu_us) sl)
    (med (fun s -> s.p50) sl) (med (fun s -> s.p99) sl)
    (List.fold_left (fun a s -> a + s.n) 0 sl)

(* Live heap after a full collection, in MB: the memory the process
   retains, independent of how far garbage ran ahead of the collector. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* The end-to-end figures of an untraced run, each printed by name with
   its unit. Returns the result-line metrics: the figures that hold
   steady from run to run when the host's CPUs are shared. Wall-clock
   throughput, latency and raw times are printed, not returned: on a
   shared host they move with the neighbours' load, not with the code. *)
let end_to_end ?slo ~setups ~recoveries ~sl ~stored ~peak ~live ~failed ~attempted () =
  let gated =
    [
      m "setup_s" (median setups) "s";
      m "cpu_per_op_cal" (med (fun s -> s.cpu_us /. s.cal_us) sl) "cal";
      m "recovery_cal" (med (fun r -> r.cal) recoveries) "cal";
      m "stored_bytes_per_user_byte" stored "ratio";
      m "live_heap_mb" live "MB";
    ]
  and reported =
    [
      m "ops_per_s" (med (fun s -> s.rate) sl) "ops/s";
      m "cpu_us_per_op" (med (fun s -> s.cpu_us) sl) "us";
      m "lat_p50_us" (med (fun s -> s.p50) sl) "us";
      m "lat_p99_us" (med (fun s -> s.p99) sl) "us";
      m "recovery_s" (med (fun r -> r.secs) recoveries) "s";
      m "failed_frac" (ratio failed attempted) "ratio";
      m "peak_heap_mb" peak "MB";
      m "calibration_us" (med (fun s -> s.cal_us) sl) "us";
    ]
  in
  List.iter (fun x -> line "e2e %-28s %14.4f %s" x.m_name x.m_value x.m_unit) (gated @ reported);
  (match slo with
  | Some r -> line "e2e %-28s %14.4f %s" "slo_rate_ops_s" r "req/s"
  | None -> line "e2e %-28s %14s %s" "slo_rate_ops_s" "n/a" "(wire-cardmix only)");
  gated
