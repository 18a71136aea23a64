(* engine-fanin: the posting engine under fan-in. In-process Mem-store
   session; every object carries 64 activations over a 32-event
   alphabet with masks, and each transaction posts a fixed batch of
   events by interned id. Most posts are irrelevant to the activations'
   current states (filter skips); the rest move machines, evaluate masks
   and fire. *)

open Common
module S = Ode.Session
module V = Ode_objstore.Value
module Dsl = Ode.Dsl

let objects = 512
let alphabet = 32
let triggers = 16 (* trigger j watches e(2j) & Hi then e(2j+1) *)
let per_trigger = 4 (* activations of each trigger per object: 64 in all *)
let batch = 16 (* posts per transaction *)
let level = 90
let sample_every = 32 (* the oracle replays every this-many-th object *)

let ev i = Printf.sprintf "e%d" i

let define env =
  let hi env ctx =
    V.to_int (Dsl.event_arg ctx 0) > V.to_int (Dsl.obj_get env ctx "level")
  in
  let fire env ctx =
    Dsl.obj_set env ctx "fires" (V.Int (V.to_int (Dsl.obj_get env ctx "fires") + 1))
  in
  S.define_class env ~name:"Sensor"
    ~fields:[ ("level", V.Int level); ("fires", V.Int 0) ]
    ~events:(List.init alphabet (fun i -> Dsl.user_event (ev i)))
    ~masks:[ ("Hi", hi) ]
    ~triggers:
      (List.init triggers (fun j ->
           Dsl.trigger (Printf.sprintf "T%d" j) ~perpetual:true
             ~event:(Printf.sprintf "relative(%s & Hi, %s & Hi)" (ev (2 * j)) (ev ((2 * j) + 1)))
             ~action:fire))
    ()

let durability () = group_mode ()

(* The WAL is bounded the way a long-running server bounds it: segment
   rotation plus the automatic checkpoint policy. *)
let segment_bytes = 64 * 1024
let auto_ckpt_bytes = 4 lsl 20

(* Create [idx] objects with all their activations; returns the oids and
   the interned event ids. *)
let provision env idx =
  let oids =
    S.with_txn env (fun txn ->
        List.map
          (fun _ ->
            let o = S.pnew env txn ~cls:"Sensor" () in
            for j = 0 to triggers - 1 do
              for _ = 1 to per_trigger do
                ignore (S.activate env txn o ~trigger:(Printf.sprintf "T%d" j) ~args:[])
              done
            done;
            o)
          idx)
  in
  let ids =
    S.with_txn env (fun txn -> Array.init alphabet (fun i -> S.user_event_id env txn (List.hd oids) (ev i)))
  in
  (Array.of_list oids, ids)

let setup () =
  let env =
    S.create ~store:`Mem ~durability:(durability ()) ~wal_segment_bytes:segment_bytes
      ~auto_checkpoint_bytes:auto_ckpt_bytes ()
  in
  define env;
  let oids, ids = provision env (List.init objects Fun.id) in
  S.sync env;
  (env, oids, ids)

(* One transaction's inputs: an object and [batch] (event, arg) posts. *)
let draw rng =
  let o = Random.State.int rng objects in
  let posts = Array.init batch (fun _ -> (Random.State.int rng alphabet, Random.State.int rng 100)) in
  (o, posts)

type tr = { t : Trace.t; n_txn : int; n_post : int; n_commit : int }

let tracer () =
  let t = Trace.create () in
  { t; n_txn = Trace.name_id t "txn"; n_post = Trace.name_id t "session.post"; n_commit = Trace.name_id t "session.commit" }

let txn ?tr env oids ids (o, posts) ~req =
  let root = match tr with Some tr -> Trace.open_ tr.t ~name:tr.n_txn ~parent:(-1) ~req | None -> -1 in
  let txn = S.begin_txn env in
  Array.iter
    (fun (e, arg) ->
      let post () = S.post_event_id ~args:[ V.Int arg ] env txn oids.(o) ~event:ids.(e) in
      match tr with None -> post () | Some tr -> Trace.span tr.t ~name:tr.n_post ~parent:root ~req post)
    posts;
  (match tr with
  | None -> S.commit env txn
  | Some tr -> Trace.span tr.t ~name:tr.n_commit ~parent:root ~req (fun () -> S.commit env txn));
  match tr with Some tr -> Trace.close tr.t root | None -> ()

let loop ?tr ?txns env oids ids rng ~seconds ~count lats =
  let t0 = now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  let continue () = match txns with Some k -> !n < k | None -> now_ns () < stop in
  while continue () do
    let inp = draw rng in
    let a = now_ns () in
    txn ?tr env oids ids inp ~req:!count;
    add lats (us_of_ns (now_ns () - a));
    incr n;
    incr count
  done;
  (!n, secs_of_ns (now_ns () - t0))

let fires_of env oids =
  S.with_txn env (fun txn -> Array.map (fun o -> V.to_int (S.get_field env txn o "fires")) oids)

(* Oracle, off the clock: regenerate the run's [total] transactions from
   the seed and replay those on a sample of objects (every [sample_every]th, offset
   by the seed) through the reference engine; each sampled object's
   firing count must match. Returns the number of divergent objects. *)
let check ~seed ~total fired =
  let sample = List.filter (fun i -> i mod sample_every = seed mod sample_every) (List.init objects Fun.id) in
  let env = S.create ~store:`Mem ~engine:Ode_trigger.Runtime.reference_config () in
  define env;
  let oids, ids = provision env sample in
  let slot = Hashtbl.create 64 in
  List.iteri (fun j i -> Hashtbl.replace slot i j) sample;
  let rng = Random.State.make [| seed; 0xfa41 |] in
  for _ = 1 to total do
    let o, posts = draw rng in
    match Hashtbl.find_opt slot o with
    | Some j -> txn env oids ids (j, posts) ~req:0
    | None -> ()
  done;
  let want = fires_of env oids in
  List.fold_left
    (fun bad i -> if fired.(i) <> want.(Hashtbl.find slot i) then bad + 1 else bad)
    0 sample

let run ~seed ~seconds ~trace ?txns () =
  let (env, oids, ids), first_setup = timed_setup setup in
  let rng = Random.State.make [| seed; 0xfa41 |] in
  let count = ref 0 in
  let layers = Layers.create () in
  ignore (loop env oids ids rng ~seconds:0. ~txns:500 ~count (samples 1));
  (* The image recovered during the run: a full checkpoint laid, then
     what a crash at this point would leave. *)
  checkpoint_full env;
  let image = live_image ~kind:`Mem env in
  let setup_times = ref [ first_setup ] and recovery_times = ref [] in
  let between i =
    if extra_setup_after i then setup_times := snd (timed_setup setup) :: !setup_times;
    recovery_times := fst (recover_once ~kind:`Mem ~durability:(durability ()) ~define image) :: !recovery_times
  in
  let before = S.counters env in
  let timed ?tr ~seconds ?txns lats = loop ?tr ?txns env oids ids rng ~seconds ~count lats in
  let sl =
    if trace then begin
      let tr = tracer () in
      let n1, untraced, traced =
        alternate ~seconds ?txns (fun ~traced ~seconds ?txns () ->
            timed ?tr:(if traced then Some tr else None) ~seconds ?txns (samples 1))
      in
      let summary = Trace.summary tr.t in
      Layers.of_spans layers summary
        ~map:[ ("session.post", "session.post_us"); ("session.commit", "session.commit_us") ];
      let part f name = match List.assoc_opt name summary with Some x -> f x | None -> 0 in
      let total = part (fun (_, d, _) -> d) and self = part (fun (_, _, s) -> s) in
      let layer_sum_us =
        float_of_int (total "session.post" + total "session.commit" + self "txn")
        /. float_of_int (max 1 n1) /. 1e3
      in
      Layers.sum_check layers ~layer_sum_us ~e2e_us:(1e6 /. untraced) ~traced_ops:traced
        ~untraced_ops:untraced;
      ensure_out_dir ();
      Trace.write tr.t (Filename.concat out_dir (Printf.sprintf "engine-fanin-seed%d.spans.tsv" seed));
      []
    end
    else sliced ~between ~seconds ?txns ~cap:200_000 (fun ~seconds ?txns lats -> timed ~seconds ?txns lats)
  in
  let after = S.counters env in
  let peak = peak_heap_mb () in
  Layers.of_counters layers ~d:(delta ~before ~after) ~after;
  S.sync env;
  let fired = fires_of env oids in
  let fires_total = get (S.counters env) "rt.fires_immediate" in
  let fires_field = Array.fold_left ( + ) 0 fired in
  (* End of run: a full checkpoint, the stored bytes, then the crash. *)
  checkpoint_full env;
  let stored = stored_ratio ~page_size:0 (S.counters env) ~user_bytes:(objects * 16) in
  let live = live_heap_mb () in
  let end_image = S.crash env in
  let end_r, env' = recover_once ~kind:`Mem ~durability:(durability ()) ~define end_image in
  Layers.set layers "recovery.wal_mb" (image_mb end_image);
  Layers.seti layers "recovery.objects" (List.length (S.cluster env' ~cls:"Sensor"));
  (* Every firing's action counts itself in its object's field. *)
  let bad = check ~seed ~total:!count fired + if fires_field <> fires_total then 1 else 0 in
  line "engine-fanin: %d objects x %d activations, %d-event alphabet, %d posts/txn; %d txns, %d fires"
    objects (triggers * per_trigger) alphabet batch !count fires_total;
  line "engine-fanin: oracle: %d of %d sampled objects diverge from the reference engine; fire fields sum %d"
    bad (objects / sample_every) fires_field;
  line "engine-fanin: recovery of the end-of-run image %.4f s (%.2f MB of WAL)" end_r.secs (image_mb end_image);
  if trace then Layers.report layers else slice_report "engine-fanin" sl;
  let o =
    {
      correct = bad = 0;
      attempted = !count;
      failed = bad;
      metrics =
        (if trace then Layers.metrics layers
         else
           end_to_end ~setups:!setup_times ~recoveries:!recovery_times ~sl ~stored ~peak ~live ~failed:bad
             ~attempted:!count ());
    }
  in
  (o, layers)
