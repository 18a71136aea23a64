(* wire-cardmix: the user-facing request path. A K=1 Free-mode fleet on the
   Disk store with Group durability serves the paper's credit-card schema
   over a unix socket; every card carries DenyCredit and AutoRaiseLimit.
   One generator thread drives two connections with a select loop,
   encoding frames with Proto itself: reads (Get_field, Snapshot_get)
   beside Invoke Buy/PayBill, zipfian card choice, each card's writes on
   an ordered stream of their own. *)

open Common
module S = Ode.Session
module V = Ode_objstore.Value
module Oid = Ode_objstore.Oid
module P = Ode_net.Proto
module Server = Ode_net.Server
module Sharded = Ode_parallel.Sharded
module CC = Ode.Credit_card

let cards = 2_000
let zipf_s = 0.99
let limit0 = 1000.
let raise_by = 500.
let page_size = 4096
let pool_frames = 256 (* the card working set (about 75 pages) fits *)
let segment_bytes = 64 * 1024
let auto_ckpt_bytes = 8 lsl 20
let full_every = 4
let n_conns = 2
let read_share = 0.7 (* half Get_field, half Snapshot_get *)
let buy_share = 0.6 (* of writes; the rest PayBill *)
let big_share = 0.05 (* of Buys: far over the limit, so DenyCredit aborts *)
let big_amount = 1e9

(* Load shape. *)
let open_rate = 6_000. (* req/s, open-loop phase *)
let window = 32 (* outstanding requests in the closed-loop phase *)
let ladder = [ 5_000.; 10_000.; 15_000.; 20_000.; 25_000. ]
let slo_us = 1000.
let closed_cap = 100_000. (* req/s the request log is sized for *)

let durability () = group_mode ()

(* ---------------- requests ---------------- *)

type kind = Get | Snap | Buy | Big | Pay

let kind_code = function Get -> 0 | Snap -> 1 | Buy -> 2 | Big -> 3 | Pay -> 4
let kind_of_code = [| Get; Snap; Buy; Big; Pay |]
let is_read = function Get | Snap -> true | _ -> false

(* Generator: draws requests from the seed and keeps a model of each
   card's balance so that ordinary Buys never cross the limit and every
   big Buy does. *)
type gen = { rng : Random.State.t; z : zipf; bal : float array }

let gen seed = { rng = Random.State.make [| seed; 0xc4ad |]; z = zipf ~n:cards ~s:zipf_s; bal = Array.make cards 0. }

let draw g =
  let c = zipf_draw g.z g.rng in
  let u = Random.State.float g.rng 1. in
  if u < read_share /. 2. then (Get, c, 0.)
  else if u < read_share then (Snap, c, 0.)
  else begin
    let b = g.bal.(c) in
    let pay () =
      let a = Float.round (b *. (0.3 +. Random.State.float g.rng 0.7)) in
      g.bal.(c) <- b -. a;
      (Pay, c, a)
    in
    if Random.State.float g.rng 1. < buy_share then
      if Random.State.float g.rng 1. < big_share then (Big, c, big_amount)
      else begin
        let a = Float.min (Float.of_int (1 + Random.State.int g.rng 100)) (Float.round ((0.9 *. limit0) -. b)) in
        if a >= 1. then begin
          g.bal.(c) <- b +. a;
          (Buy, c, a)
        end
        else pay ()
      end
    else if b >= 1. then pay ()
    else begin
      let a = Float.of_int (1 + Random.State.int g.rng 100) in
      g.bal.(c) <- b +. a;
      (Buy, c, a)
    end
  end

(* The request log: every request sent, with its reply. Preallocated
   to the run's capacity so bookkeeping does not scale the heap with
   throughput. *)
type log = {
  mutable len : int;
  kind : Bytes.t;
  card : int array;
  amt : float array; (* write amount, or the value a read returned *)
  status : Bytes.t; (* 0 pending, 1 ok, 2 aborted, 3 failed *)
  due : int array;
}

let log cap =
  {
    len = 0;
    kind = Bytes.make cap '\000';
    card = Array.make cap 0;
    amt = Array.make cap 0.;
    status = Bytes.make cap '\000';
    due = Array.make cap 0;
  }

let st_pending = 0
let st_ok = 1
let st_aborted = 2
let st_failed = 3
let status l i = Char.code (Bytes.get l.status i)
let set_status l i s = Bytes.set l.status i (Char.chr s)
let kind l i = kind_of_code.(Char.code (Bytes.get l.kind i))

(* ---------------- targets ---------------- *)

type cardset = { merchant : Oid.t; oids : Oid.t array }

let meth_args cs (k, c, a) =
  let meth, args =
    match k with
    | Buy | Big -> ("Buy", [ V.Oid cs.merchant; V.Float a ])
    | Pay -> ("PayBill", [ V.Float a ])
    | Get | Snap -> invalid_arg "meth_args: a read"
  in
  (cs.oids.(c), meth, args)

let request cs ((k, c, _) as r) =
  match k with
  | Get -> P.Get_field { obj = cs.oids.(c); field = "currBal" }
  | Snap -> P.Snapshot_get { obj = cs.oids.(c); field = "currBal" }
  | _ ->
      let obj, meth, args = meth_args cs r in
      P.Invoke { obj; meth; args }

let conn_of c = c mod n_conns
let stream_of k c = if is_read k then 0 else (c / n_conns) + 1

(* In-process provisioning, in the same order as over the wire. *)
let provision_local env =
  let customer, merchant =
    S.with_txn env (fun txn ->
        (CC.new_customer env txn ~name:"c", CC.new_merchant env txn ~name:"m"))
  in
  let oids =
    Array.init cards (fun _ ->
        S.with_txn env (fun txn ->
            let o = CC.new_card env txn ~customer ~limit:limit0 () in
            ignore (S.activate env txn o ~trigger:"DenyCredit" ~args:[]);
            ignore (S.activate env txn o ~trigger:"AutoRaiseLimit" ~args:[ V.Float raise_by ]);
            o))
  in
  { merchant; oids }

(* Execute one request against a session exactly as the server does. *)
let exec env cs ((k, c, _) as r) =
  match k with
  | Get | Snap -> (
      let read txn = S.get_field env txn cs.oids.(c) "currBal" in
      match if k = Get then S.with_txn env read else S.with_snapshot env read with
      | V.Float v -> (st_ok, v)
      | _ -> (st_failed, 0.)
      | exception _ -> (st_failed, 0.))
  | _ -> (
      let obj, meth, args = meth_args cs r in
      match S.with_txn env (fun txn -> S.invoke env txn obj meth args) with
      | _ -> (st_ok, 0.)
      | exception S.Aborted -> (st_aborted, 0.)
      | exception _ -> (st_failed, 0.))

let fleet () =
  Sharded.create ~store:`Disk ~page_size ~pool_capacity:pool_frames ~flush_spin:0 ~flush_sleep:0
    ~durability:(durability ()) ~wal_segment_bytes:segment_bytes ~ckpt_full_every:full_every
    ~auto_checkpoint_bytes:auto_ckpt_bytes ~shards:1 ~mode:Sharded.Free
    ~schema:(fun ~shard:_ env -> CC.define_all env)
    ()

let session () =
  S.create ~store:`Disk ~page_size ~pool_capacity:pool_frames ~flush_spin:0 ~flush_sleep:0
    ~durability:(durability ()) ~wal_segment_bytes:segment_bytes ~ckpt_full_every:full_every
    ~auto_checkpoint_bytes:auto_ckpt_bytes ()

(* ---------------- the wire ---------------- *)

type conn = {
  fd : Unix.file_descr;
  chunks : P.Chunks.t;
  mutable out : Bytes.t;
  mutable out_len : int;
  mutable out_off : int;
}

let rbuf = Bytes.create 65536

let append cn frame =
  let n = Bytes.length frame in
  if cn.out_len + n > Bytes.length cn.out then begin
    let live = cn.out_len - cn.out_off in
    let b = Bytes.create (max (2 * Bytes.length cn.out) (live + n)) in
    Bytes.blit cn.out cn.out_off b 0 live;
    cn.out <- b;
    cn.out_len <- live;
    cn.out_off <- 0
  end;
  Bytes.blit frame 0 cn.out cn.out_len n;
  cn.out_len <- cn.out_len + n

let flush cn =
  let rec go () =
    if cn.out_off < cn.out_len then
      match Unix.single_write cn.fd cn.out cn.out_off (cn.out_len - cn.out_off) with
      | n ->
          cn.out_off <- cn.out_off + n;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ();
  if cn.out_off = cn.out_len then begin
    cn.out_off <- 0;
    cn.out_len <- 0
  end

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let cn = { fd; chunks = P.Chunks.create (); out = Bytes.create 65536; out_len = 0; out_off = 0 } in
  append cn (P.encode_request ~sync:0 ~stream:0 (P.Hello { magic = P.magic; version = P.version }));
  flush cn;
  let rec pong () =
    match P.Chunks.next cn.chunks with
    | Some body -> (
        match P.decode_reply body with
        | _, P.Done (P.P_pong _) -> ()
        | _ -> failwith "wire-cardmix: handshake refused")
    | None ->
        let n = Unix.read fd rbuf 0 (Bytes.length rbuf) in
        if n = 0 then failwith "wire-cardmix: server closed during handshake";
        P.Chunks.feed cn.chunks rbuf 0 n;
        pong ()
  in
  pong ();
  Unix.set_nonblock fd;
  cn

(* A running wire target: fleet, server, connections, provisioned cards. *)
type wire = { fleet : Sharded.t; server : Server.t; conns : conn array; cs : cardset }

let sock_seq = ref 0

let start_wire () =
  incr sock_seq;
  ensure_out_dir ();
  let path = Filename.concat out_dir (Printf.sprintf "cm-%d-%d.sock" (Unix.getpid ()) !sock_seq) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fleet = fleet () in
  let cs = Sharded.with_shard fleet ~key:0 provision_local in
  let server = Server.start ~fleet ~listen:[ Server.Unix_sock path ] () in
  let conns = Array.init n_conns (fun _ -> connect path) in
  { fleet; server; conns; cs }

let stop_wire w =
  Array.iter (fun cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) w.conns;
  let r = Server.stop w.server in
  (match r.Server.r_failure with Some f -> failwith ("wire-cardmix: server failure: " ^ f) | None -> ());
  Sharded.sync w.fleet

(* The select-loop load generator over the connections. Request [i] of the log
   travels with sync [i + 1]. *)
type load = {
  w : wire;
  g : gen;
  l : log;
  mutable outstanding : int;
  mutable completed : int;
  lat : samples; (* us from due time to reply *)
  mutable keep : (Bytes.t -> unit) option; (* sees raw reply bodies, when tracing *)
  mutable on_send : (P.request -> int -> unit) option; (* sees request, stream *)
}

let send_next d ~due =
  let l = d.l in
  if l.len >= Array.length l.card then false
  else begin
    let ((k, c, a) as r) = draw d.g in
    let i = l.len in
    l.len <- i + 1;
    Bytes.set l.kind i (Char.chr (kind_code k));
    l.card.(i) <- c;
    l.amt.(i) <- a;
    set_status l i st_pending;
    l.due.(i) <- due;
    let req = request d.w.cs r in
    let stream = stream_of k c in
    (match d.on_send with Some f -> f req stream | None -> ());
    append d.w.conns.(conn_of c) (P.encode_request ~sync:(i + 1) ~stream req);
    d.outstanding <- d.outstanding + 1;
    true
  end

let on_reply d body now =
  let sync, reply = P.decode_reply body in
  let i = sync - 1 in
  let l = d.l in
  (match d.keep with Some f -> f body | None -> ());
  let st =
    match (kind l i, reply) with
    | (Get | Snap), P.Done (P.P_value (V.Float v)) ->
        l.amt.(i) <- v;
        st_ok
    | (Buy | Big | Pay), P.Done _ -> st_ok
    | (Buy | Big | Pay), P.Fail { code = P.E_aborted; _ } -> st_aborted
    | _ -> st_failed
  in
  set_status l i st;
  add d.lat (if st = st_failed then infinity else us_of_ns (now - l.due.(i)));
  d.outstanding <- d.outstanding - 1;
  d.completed <- d.completed + 1

let pump d ~timeout =
  Array.iter flush d.w.conns;
  let fds = Array.to_list (Array.map (fun cn -> cn.fd) d.w.conns) in
  let wfds =
    Array.to_list d.w.conns |> List.filter (fun cn -> cn.out_len > 0) |> List.map (fun cn -> cn.fd)
  in
  let r, _, _ =
    try Unix.select fds wfds [] (Float.max 0. timeout)
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun fd ->
      let cn = Array.to_list d.w.conns |> List.find (fun cn -> cn.fd = fd) in
      match Unix.read fd rbuf 0 (Bytes.length rbuf) with
      | 0 -> failwith "wire-cardmix: server closed a connection"
      | n ->
          P.Chunks.feed cn.chunks rbuf 0 n;
          let now = now_ns () in
          let rec drain () =
            match P.Chunks.next cn.chunks with
            | Some body ->
                on_reply d body now;
                drain ()
            | None -> ()
          in
          drain ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ())
    r

let drain d ~deadline =
  while d.outstanding > 0 && now_ns () < deadline do
    pump d ~timeout:0.01
  done

(* Open loop at [rate] for [dur] seconds: request j is due at
   t0 + j/rate and is timed from its due time. Returns the backlog
   (outstanding requests) at mid-phase and at the end of issuing. *)
let open_loop d ~rate ~dur ~late =
  let n = int_of_float (rate *. dur) in
  let period = 1e9 /. rate in
  let t0 = now_ns () + 1_000_000 in
  let due j = t0 + int_of_float (float_of_int j *. period) in
  let j = ref 0 and mid = ref 0 in
  while !j < n do
    let now = now_ns () in
    while !j < n && due !j <= now do
      if send_next d ~due:(due !j) then add late (us_of_ns (now - due !j));
      incr j;
      if !j = n / 2 then mid := d.outstanding
    done;
    let wait = if !j < n then secs_of_ns (due !j - now_ns ()) else 0. in
    pump d ~timeout:(Float.min wait 0.005)
  done;
  let at_end = d.outstanding in
  drain d ~deadline:(now_ns () + 5_000_000_000);
  (!mid, at_end)

(* Closed loop: keep [window] requests outstanding for [dur] seconds.
   Returns completed requests per second over the interval. *)
let closed_loop d ~dur =
  let t0 = now_ns () in
  let stop = t0 + int_of_float (dur *. 1e9) in
  let c0 = d.completed in
  let full = ref false in
  while now_ns () < stop && not !full do
    while d.outstanding < window && not !full do
      if not (send_next d ~due:(now_ns ())) then full := true
    done;
    pump d ~timeout:0.005
  done;
  let el = now_ns () - t0 in
  let done_ = d.completed - c0 in
  drain d ~deadline:(now_ns () + 5_000_000_000);
  float_of_int done_ /. secs_of_ns el

(* One request at a time for [dur] seconds: send it, wait for its reply.
   With [tr], spans client.send and client.wait under one wire.request
   span. Returns (requests, elapsed s). *)
let serial ?tr d ~dur =
  let t0 = now_ns () in
  let stop = t0 + int_of_float (dur *. 1e9) in
  let c0 = d.completed in
  let full = ref false in
  while now_ns () < stop && not !full do
    let req = d.l.len in
    let send () = if send_next d ~due:(now_ns ()) then Array.iter flush d.w.conns else full := true in
    let wait () =
      while d.outstanding > 0 do
        pump d ~timeout:0.005
      done
    in
    match tr with
    | Some (t, n_req, n_send, n_wait) ->
        let root = Trace.open_ t ~name:n_req ~parent:(-1) ~req in
        Trace.span t ~name:n_send ~parent:root ~req send;
        Trace.span t ~name:n_wait ~parent:root ~req wait;
        Trace.close t root
    | None ->
        send ();
        wait ()
  done;
  (d.completed - c0, secs_of_ns (now_ns () - t0))

(* ---------------- oracle ---------------- *)

(* Replay the log's writes, in send order (which is each card's stream
   order), through a fresh reference-engine session; every write's
   outcome, every read's value and each card's final balance, limit and
   black-mark count must agree. [final] gives the system's end state per
   card. Returns the number of divergent requests and cards. *)
let oracle l ~final =
  let env = S.create ~store:`Mem ~engine:Ode_trigger.Runtime.reference_config () in
  CC.define_all env;
  let cs = provision_local env in
  let seen = Hashtbl.create 65536 in
  let note c v = Hashtbl.replace seen (c, Int64.bits_of_float v) () in
  for c = 0 to cards - 1 do
    note c 0.
  done;
  let bad = ref 0 in
  for i = 0 to l.len - 1 do
    let k = kind l i in
    if not (is_read k) then begin
      let c = l.card.(i) in
      let want, _ = exec env cs (k, c, l.amt.(i)) in
      if want <> status l i then incr bad;
      note c (S.with_txn env (fun txn -> CC.balance env txn cs.oids.(c)))
    end
  done;
  for i = 0 to l.len - 1 do
    if is_read (kind l i) then
      if status l i <> st_ok || not (Hashtbl.mem seen (l.card.(i), Int64.bits_of_float l.amt.(i))) then
        incr bad
  done;
  S.with_txn env (fun txn ->
      Array.iteri
        (fun c o ->
          let b, lim, marks = final c in
          if
            b <> CC.balance env txn o
            || lim <> CC.limit env txn o
            || marks <> List.length (CC.black_marks env txn o)
          then incr bad)
        cs.oids);
  !bad

let final_of env cs c =
  S.with_txn env (fun txn ->
      let o = cs.oids.(c) in
      (CC.balance env txn o, CC.limit env txn o, List.length (CC.black_marks env txn o)))

let card_fields = [ "issuedTo"; "credLim"; "currBal"; "black_marks"; "purchases"; "audit" ]

let user_bytes env cs =
  S.with_txn env (fun txn ->
      Array.fold_left
        (fun a o -> List.fold_left (fun a f -> a + value_bytes (S.get_field env txn o f)) a card_fields)
        2 (* the customer's and the merchant's one-letter names *) cs.oids)

let recover image = recover_once ~kind:`Disk ~durability:(durability ()) ~define:CC.define_all image

(* The image recovered during the run: with the fleet quiescent, a full
   checkpoint laid on the shard's session, then what a crash at this
   point would leave. *)
let fleet_image w =
  Sharded.sync w.fleet;
  Sharded.with_shard w.fleet ~key:0 (fun env ->
      checkpoint_full env;
      live_image ~kind:`Disk env)

type run_end = { stored : float; live : float; pages : int; end_secs : float; end_mb : float; cards_back : int }

(* Stop the fleet, lay a full checkpoint on its session and crash it: the
   end-of-run image, recovered once. *)
let crash_and_recover w =
  Sharded.shutdown w.fleet;
  let env = Sharded.session w.fleet 0 in
  checkpoint_full env;
  let counters = S.counters env in
  let stored = stored_ratio ~page_size counters ~user_bytes:(user_bytes env w.cs) in
  let live = live_heap_mb () in
  let image = S.crash env in
  let r, env' = recover image in
  {
    stored;
    live;
    pages = stores counters "pages";
    end_secs = r.secs;
    end_mb = image_mb image;
    cards_back = List.length (S.cluster env' ~cls:"CredCard");
  }

let check_wire w l =
  let env = Sharded.session w.fleet 0 in
  oracle l ~final:(final_of env w.cs)

let failed_of l =
  let f = ref 0 in
  for i = 0 to l.len - 1 do
    if status l i = st_failed || status l i = st_pending then incr f
  done;
  !f

let load ~lat_cap w g l =
  { w; g; l; outstanding = 0; completed = 0; lat = samples lat_cap; keep = None; on_send = None }

(* ---------------- untraced run: the end-to-end metrics ---------------- *)

(* A set-up timed off to the side while the measured fleet idles. *)
let extra_setup () =
  let w, secs = timed_setup start_wire in
  stop_wire w;
  Sharded.shutdown w.fleet;
  secs

type measured = {
  rounds : slice list;
  slo : float;
  setups : float list;
  recoveries : recovery list;
  late : float array; (* generator lateness p99 and max, us, and sends *)
  peak : float;
  bad : int;
  attempted : int;
  failed : int;
}

(* The timed phases and the oracle. Everything sized by the run's length
   (the request log, the samples) is dead once this returns, so the live
   heap measured after it is the system's own. *)
let measure w ~seed ~seconds ~first_setup =
  let t_open = 0.4 *. seconds and t_closed = 0.4 *. seconds in
  let t_step = 0.2 *. seconds /. float_of_int (List.length ladder) in
  let cap =
    int_of_float
      ((open_rate *. t_open) +. List.fold_left (fun a r -> a +. (r *. t_step)) 0. ladder
      +. (closed_cap *. (t_closed +. 0.5)))
    + 10_000
  in
  let g = gen seed and l = log cap in
  let per = float_of_int slices in
  let lat_cap = int_of_float (Float.max (open_rate *. t_open /. per) (List.fold_left Float.max 0. ladder *. t_step)) + 1_000 in
  let d = load ~lat_cap w g l in
  (* Warm up: caches, pool and the first checkpoints. *)
  ignore (closed_loop d ~dur:0.5);
  let image = fleet_image w in
  let setups = ref [ first_setup ] and recoveries = ref [] in
  (* Rounds of an open-loop part at the fixed rate (latency, timed from
     each request's due time) then a closed-loop slice (throughput), with
     the repeated set-ups and recoveries between rounds, off the clock. *)
  let late = samples (int_of_float (open_rate *. t_open) + 1_000) in
  let rounds =
    List.init slices (fun i ->
        clear d.lat;
        let rl = samples (int_of_float (open_rate *. t_open /. per) + 1_000) in
        ignore (open_loop d ~rate:open_rate ~dur:(t_open /. per) ~late:rl);
        for j = 0 to rl.n - 1 do
          add late (Float.Array.get rl.v j)
        done;
        let sl = sorted d.lat in
        let n = d.lat.n in
        let c0 = cpu_s () and k0 = d.completed in
        let rate = closed_loop d ~dur:(t_closed /. per) in
        let cpu_us = (cpu_s () -. c0) *. 1e6 /. float_of_int (max 1 (d.completed - k0)) in
        if extra_setup_after i then setups := extra_setup () :: !setups;
        recoveries := fst (recover image) :: !recoveries;
        {
          rate;
          p50 = pct sl 0.5;
          p99 = pct sl 0.99;
          n;
          late99 = pct (sorted rl) 0.99;
          cpu_us;
          cal_us = calibrate () *. 1e6;
        })
  in
  (* The rate ladder: the highest rate meeting the latency limit. *)
  let slo = ref 0. in
  List.iter
    (fun rate ->
      clear d.lat;
      let step_late = samples (int_of_float (rate *. t_step) + 1) in
      let mid, at_end = open_loop d ~rate ~dur:t_step ~late:step_late in
      let sl = sorted d.lat in
      let p99 = pct sl 0.99 in
      let growing = at_end > max 8 (int_of_float (rate *. 0.002)) && at_end > mid in
      let pass = p99 <= slo_us && not growing in
      line
        "wire-cardmix: ladder %.0f req/s: p50 %.1f us, p99 %.1f us over %d samples, backlog mid %d \
         end %d, generator late p99 %.1f us -> %s"
        rate (pct sl 0.5) p99 d.lat.n mid at_end
        (pct (sorted step_late) 0.99)
        (if pass then "meets" else "misses");
      if pass then slo := rate)
    ladder;
  let peak = peak_heap_mb () in
  stop_wire w;
  let bad = check_wire w l in
  let late_s = sorted late in
  {
    rounds;
    slo = !slo;
    setups = !setups;
    recoveries = !recoveries;
    late = [| pct late_s 0.99; pct late_s 1.0; float_of_int late.n |];
    peak;
    bad;
    attempted = l.len;
    failed = failed_of l + bad;
  }

let run_untraced ~seed ~seconds =
  let w, first_setup = timed_setup start_wire in
  let r = measure w ~seed ~seconds ~first_setup in
  let e = crash_and_recover w in
  line "wire-cardmix: %d cards (zipf %.2f) on %d pages, pool %d frames (working set fits), %d connections, window %d"
    cards zipf_s e.pages pool_frames n_conns window;
  slice_lines "wire-cardmix: round" r.rounds;
  slice_report (Printf.sprintf "wire-cardmix: open loop %.0f req/s + closed loop" open_rate) r.rounds;
  line "wire-cardmix: open loop generator late p99 %.1f us, max %.1f us over %.0f sends" r.late.(0) r.late.(1)
    r.late.(2);
  line "wire-cardmix: slo_rate_ops_s is the highest ladder rate with p99 <= %.0f us and no growing backlog" slo_us;
  line "wire-cardmix: oracle: %d divergent of %d requests" r.bad r.attempted;
  line "wire-cardmix: recovery of the end-of-run image %.4f s (%.2f MB of WAL)" e.end_secs e.end_mb;
  {
    correct = r.bad = 0;
    attempted = r.attempted;
    failed = r.failed;
    metrics =
      end_to_end ~slo:r.slo ~setups:r.setups ~recoveries:r.recoveries ~sl:r.rounds ~stored:e.stored ~peak:r.peak
        ~live:e.live ~failed:r.failed ~attempted:r.attempted ();
  }

(* ---------------- traced run: the per-layer metrics ---------------- *)

(* Append requests [i0, i1) of [src] to [dst], outcomes cleared, for
   replay at another entry point. *)
let append_log dst src i0 i1 =
  for i = i0 to i1 - 1 do
    let j = dst.len in
    dst.len <- j + 1;
    Bytes.set dst.kind j (Bytes.get src.kind i);
    dst.card.(j) <- src.card.(i);
    dst.amt.(j) <- (if is_read (kind src i) then 0. else src.amt.(i));
    set_status dst j st_pending
  done

let entry l j = (kind l j, l.card.(j), l.amt.(j))

(* Record a request's outcome at a replay entry point. *)
let settle l j (st, v) =
  set_status l j st;
  if is_read (kind l j) then l.amt.(j) <- v

(* Entry point 2: one closure per request posted to the shard mailbox
   through Sharded.post_foreign_batch, running it against the shard's
   session. Spans: sharded.request, with a shard.session child timed on
   the shard domain. *)
type via_sharded = {
  fl : Sharded.t;
  fcs : cardset;
  mu : Mutex.t;
  cv : Condition.t;
  mutable finished : bool;
  mutable a : int;
  mutable b : int;
}

let via_sharded () =
  let fl = fleet () in
  let fcs = Sharded.with_shard fl ~key:0 provision_local in
  { fl; fcs; mu = Mutex.create (); cv = Condition.create (); finished = false; a = 0; b = 0 }

let replay_sharded t v l j0 j1 =
  let n_req = Trace.name_id t "sharded.request" and n_sess = Trace.name_id t "shard.session" in
  for j = j0 to j1 - 1 do
    v.finished <- false;
    let closure env =
      let a = now_ns () in
      let r = exec env v.fcs (entry l j) in
      let b = now_ns () in
      settle l j r;
      Mutex.lock v.mu;
      v.a <- a;
      v.b <- b;
      v.finished <- true;
      Condition.signal v.cv;
      Mutex.unlock v.mu
    in
    let root = Trace.open_ t ~name:n_req ~parent:(-1) ~req:j in
    Sharded.post_foreign_batch v.fl ~shard:0 [ closure ];
    Mutex.lock v.mu;
    while not v.finished do
      Condition.wait v.cv v.mu
    done;
    Mutex.unlock v.mu;
    Trace.close t root;
    ignore (Trace.record t ~name:n_sess ~parent:root ~req:j ~start:v.a ~stop:v.b)
  done

let finish_sharded v l =
  Sharded.shutdown v.fl;
  oracle l ~final:(final_of (Sharded.session v.fl 0) v.fcs)

(* Entry point 3: the same requests straight through Session, with a span
   around each public call. *)
let via_session () =
  let env = session () in
  CC.define_all env;
  (env, provision_local env)

let replay_session t (env, cs) l j0 j1 =
  let n_req = Trace.name_id t "session.request" in
  let n_get = Trace.name_id t "session.get_field" and n_snap = Trace.name_id t "session.snapshot" in
  let n_inv = Trace.name_id t "session.invoke" and n_commit = Trace.name_id t "session.commit" in
  for j = j0 to j1 - 1 do
    let ((k, c, _) as r) = entry l j in
    let root = Trace.open_ t ~name:n_req ~parent:(-1) ~req:j in
    let span name f = Trace.span t ~name ~parent:root ~req:j f in
    let aborted txn =
      S.abort env txn;
      (st_aborted, 0.)
    in
    let result =
      match k with
      | Snap -> (
          match span n_snap (fun () -> S.with_snapshot env (fun txn -> S.get_field env txn cs.oids.(c) "currBal")) with
          | V.Float v -> (st_ok, v)
          | _ | (exception _) -> (st_failed, 0.))
      | _ -> (
          let txn = S.begin_txn env in
          let body () =
            match k with
            | Get -> span n_get (fun () -> S.get_field env txn cs.oids.(c) "currBal")
            | _ ->
                let obj, meth, args = meth_args cs r in
                span n_inv (fun () -> S.invoke env txn obj meth args)
          in
          match body () with
          | v -> (
              match span n_commit (fun () -> S.commit env txn) with
              | () -> (
                  match (k, v) with Get, V.Float v -> (st_ok, v) | Get, _ -> (st_failed, 0.) | _ -> (st_ok, 0.))
              | exception Ode_trigger.Runtime.Tabort -> aborted txn
              | exception _ -> (st_failed, 0.))
          | exception Ode_trigger.Runtime.Tabort -> aborted txn
          | exception _ -> (st_failed, 0.))
    in
    settle l j result;
    Trace.close t root
  done

let finish_session (env, cs) l = oracle l ~final:(final_of env cs)

let run_traced ~seed ~seconds =
  let w = start_wire () in
  let phase = 0.2 *. seconds in
  let cap = int_of_float ((open_rate *. phase) +. (closed_cap *. ((2. *. phase) +. 0.5))) + 10_000 in
  let g = gen seed and l = log cap in
  let d = load ~lat_cap:(int_of_float (open_rate *. phase) + 1_000) w g l in
  let layers = Layers.create () in
  ignore (closed_loop d ~dur:0.5);
  (* Generator hygiene from an open-loop phase. *)
  let late = samples (int_of_float (open_rate *. phase) + 1) in
  ignore (open_loop d ~rate:open_rate ~dur:phase ~late);
  let late_s = sorted late in
  Layers.set layers "gen.late_p99_us" (pct late_s 0.99) ~base:(Printf.sprintf "sends=%d" late.n);
  Layers.set layers "gen.late_max_us" (pct late_s 1.0);
  (* One request at a time at every entry point, so each request's time
     is the plain sum of its hops and the entry points' differences are
     the hops. Each round runs the wire untraced, then traced, then
     replays the traced requests via Sharded and via Session, so all
     four see the same host conditions. *)
  let t = Trace.create () in
  let nb = Trace.name_id t "wire.request" and ns = Trace.name_id t "client.send" and nw = Trace.name_id t "client.wait" in
  let frames = ref [] and replies = ref [] in
  let vs = via_sharded () and vn = via_session () in
  let ls = log cap and ln = log cap in
  let sv0 = Server.counters w.server and fc0 = Sharded.counters w.fleet in
  let fs0 = Sharded.stats w.fleet in
  let n_un = ref 0 and el_un = ref 0. and n_tr = ref 0 and el_tr = ref 0. in
  let round = phase /. float_of_int trace_rounds in
  for _ = 1 to trace_rounds do
    let n, el = serial d ~dur:round in
    n_un := !n_un + n;
    el_un := !el_un +. el;
    d.on_send <- Some (fun req stream -> frames := (req, stream) :: !frames);
    d.keep <- Some (fun body -> replies := body :: !replies);
    let i0 = l.len in
    let n, el = serial ~tr:(t, nb, ns, nw) d ~dur:round in
    n_tr := !n_tr + n;
    el_tr := !el_tr +. el;
    d.on_send <- None;
    d.keep <- None;
    let j0 = ls.len in
    append_log ls l i0 l.len;
    append_log ln l i0 l.len;
    replay_sharded t vs ls j0 ls.len;
    replay_session t vn ln j0 ln.len
  done;
  let n = !n_tr in
  let untraced = float_of_int !n_un /. !el_un and traced = float_of_int n /. !el_tr in
  let sv1 = Server.counters w.server and fc1 = Sharded.counters w.fleet in
  let fs1 = Sharded.stats w.fleet in
  stop_wire w;
  let bad_wire = check_wire w l in
  let bad_sharded = finish_sharded vs ls and bad_session = finish_session vn ln in
  (* The codec, replayed over this run's own traced frames. *)
  let reqs = Array.of_list (List.rev !frames) and bodies = Array.of_list !replies in
  let encoded, enc_ns =
    time_ns (fun () -> Array.mapi (fun i (req, stream) -> P.encode_request ~sync:(i + 1) ~stream req) reqs)
  in
  let req_bodies = Array.map (fun f -> Bytes.sub f 4 (Bytes.length f - 4)) encoded in
  let (), dec_ns =
    time_ns (fun () ->
        Array.iter (fun b -> ignore (P.decode_request b)) req_bodies;
        Array.iter (fun b -> ignore (P.decode_reply b)) bodies)
  in
  let wire_bytes =
    Array.fold_left (fun a f -> a + Bytes.length f) 0 encoded
    + Array.fold_left (fun a b -> a + 4 + Bytes.length b) 0 bodies
  in
  Layers.set layers "proto.encode_ns" (float_of_int enc_ns /. float_of_int n) ~base:(Printf.sprintf "frames=%d" n);
  Layers.set layers "proto.decode_ns" (float_of_int dec_ns /. float_of_int n)
    ~base:(Printf.sprintf "request+reply frames=%d" (2 * n));
  Layers.set layers "proto.bytes_per_req" (float_of_int wire_bytes /. float_of_int n);
  (* Layer numbers, per request. *)
  let sum = Trace.summary t in
  let tot name = match List.assoc_opt name sum with Some (_, d, _) -> float_of_int d | None -> 0. in
  let per ns = ns /. float_of_int n /. 1e3 in
  let send = per (tot "client.send") and wait = per (tot "client.wait") in
  let sharded = per (tot "sharded.request") and in_shard = per (tot "shard.session") in
  let session_us = per (tot "session.request") in
  Layers.set layers "client.send_us" send;
  Layers.set layers "client.wait_us" wait;
  Layers.set layers "net.self_us" (wait -. sharded) ~base:"client.wait_us - sharded-entry us/req";
  Layers.set layers "sharded.hop_us" (sharded -. in_shard) ~base:"sharded-entry - shard-side session us/req";
  Layers.of_spans layers sum
    ~map:
      [
        ("session.get_field", "session.get_field_us");
        ("session.snapshot", "session.snapshot_us");
        ("session.invoke", "session.invoke_us");
        ("session.commit", "session.commit_us");
      ];
  Layers.of_counters layers ~d:(delta ~before:fc0 ~after:fc1) ~after:fc1;
  let sd = delta ~before:sv0 ~after:sv1 in
  let flushes = get sd "net.flushes" and wire_reqs = !n_un + n in
  Layers.setr layers "net.frames_per_flush" (get sd "net.replies") flushes ~base:"net.flushes";
  Layers.seti layers "net.flushes" flushes;
  Layers.setr layers "net.flushes_per_req" flushes wire_reqs ~base:"requests";
  Layers.seti layers "net.frame_errors" (get sd "net.frame_errors");
  Layers.seti layers "sharded.mailbox_hwm" fs1.Sharded.fs_mailbox_hwm;
  Layers.seti layers "sharded.foreign" (fs1.Sharded.fs_foreign - fs0.Sharded.fs_foreign);
  line "wire-cardmix: per request: client.send %.3f + net %.3f + sharded hop %.3f + session %.3f us" send
    (wait -. sharded) (sharded -. in_shard) session_us;
  Layers.sum_check layers
    ~layer_sum_us:(send +. (wait -. sharded) +. (sharded -. in_shard) +. session_us)
    ~e2e_us:(1e6 /. untraced) ~traced_ops:traced ~untraced_ops:untraced;
  let e = crash_and_recover w in
  Layers.set layers "recovery.wal_mb" e.end_mb;
  Layers.seti layers "recovery.objects" e.cards_back;
  ensure_out_dir ();
  Trace.write t (Filename.concat out_dir (Printf.sprintf "wire-cardmix-seed%d.spans.tsv" seed));
  let bad = bad_wire + bad_sharded + bad_session in
  line "wire-cardmix: %d traced requests replayed at the wire, via Sharded.post_foreign_batch and via Session" n;
  line "wire-cardmix: oracle: %d divergent at the wire (of %d), %d via Sharded, %d via Session" bad_wire l.len
    bad_sharded bad_session;
  Layers.report layers;
  {
    correct = bad = 0;
    attempted = l.len + ls.len + ln.len;
    failed = failed_of l + failed_of ls + failed_of ln + bad;
    metrics = Layers.metrics layers;
  }

let run ~seed ~seconds ~trace = if trace then run_traced ~seed ~seconds else run_untraced ~seed ~seconds
