(* The repository benchmark: three workloads, each loading one layer of
   the system and bypassing another.

     odebench --workload <wire-cardmix|engine-fanin|durable-ingest|all>
              --seed <n> --seconds <s> --trace <0|1>
     odebench --selftest

   With --trace 0 the run measures the end-to-end metrics with no
   tracing; with --trace 1 it records spans around each public call and
   prints the per-layer metrics. The last stdout line is the JSON result.
   Exits non-zero when the workload's oracle finds a divergence. *)

open Common

let workloads = [ "wire-cardmix"; "engine-fanin"; "durable-ingest" ]

let provenance ~workload ~seed ~seconds ~trace =
  let shards, store, durability =
    match workload with
    | "wire-cardmix" -> ("1", "disk", "group")
    | "engine-fanin" -> ("none (in-process session)", "mem", "group")
    | _ -> ("none (in-process session)", "disk", "group")
  in
  line
    "provenance: workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s commit=%s shards=%s \
     store=%s durability=%s flush_spin=0 flush_sleep=0 device_latency=0"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "ODEBENCH_COMMIT"))
    shards store durability

let run_one ~workload ~seed ~seconds ~trace =
  match workload with
  | "durable-ingest" -> fst (Ingest.run ~seed ~seconds ~trace ())
  | "engine-fanin" -> fst (Fanin.run ~seed ~seconds ~trace ())
  | "wire-cardmix" -> Cardmix.run ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

let run ~workload ~seed ~seconds ~trace =
  provenance ~workload ~seed ~seconds ~trace;
  let o = run_one ~workload ~seed ~seconds ~trace in
  if trace then
    line "%s: failed_frac %.6f (%d failed of %d attempted)" workload (ratio o.failed o.attempted) o.failed
      o.attempted;
  if not o.correct then prerr_endline ("odebench: " ^ workload ^ ": oracle divergence");
  o

(* --workload all: the three in turn, each with its own result line, then
   one line over all three with each metric prefixed by its workload. *)
let run_all ~seed ~seconds ~trace =
  let os =
    List.map
      (fun workload ->
        let o = run ~workload ~seed ~seconds ~trace in
        result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics;
        (workload, o))
      workloads
  in
  let sum f = List.fold_left (fun a (_, o) -> a + f o) 0 os in
  {
    correct = List.for_all (fun (_, o) -> o.correct) os;
    attempted = sum (fun o -> o.attempted);
    failed = sum (fun o -> o.failed);
    metrics =
      List.concat_map (fun (w, o) -> List.map (fun x -> { x with m_name = w ^ "." ^ x.m_name }) o.metrics) os;
  }

(* Same seed, fixed transaction count: the one-caller workloads must
   produce identical per-layer counts. *)
let selftest () =
  let counts layers =
    List.filter_map
      (fun (k, u) -> if u = "us" || u = "ns" then None else Some (k, Layers.value layers k))
      Layers.catalogue
    |> List.filter (fun (k, _) -> not (String.starts_with ~prefix:"trace." k || k = "wal.footprint_mb"))
  in
  let ok = ref true in
  let compare name run =
    let a = counts (run ()) and b = counts (run ()) in
    List.iter2
      (fun (k, x) (_, y) ->
        if x <> y then begin
          ok := false;
          line "selftest %s: %s differs: %g vs %g" name k x y
        end)
      a b;
    line "selftest %s: %d counts compared" name (List.length a)
  in
  compare "durable-ingest" (fun () -> snd (Ingest.run ~seed:7 ~seconds:0. ~trace:false ~txns:6_000 ()));
  compare "engine-fanin" (fun () -> snd (Fanin.run ~seed:7 ~seconds:0. ~trace:false ~txns:3_000 ()));
  if !ok then line "selftest: ok" else exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" ("all" :: workloads));
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0|1");
      ("--selftest", Arg.Set self, " determinism check of per-layer counts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "odebench [options]";
  if !self then selftest ()
  else begin
    if not (List.mem !workload ("all" :: workloads)) then begin
      prerr_endline ("odebench: --workload must be one of " ^ String.concat ", " ("all" :: workloads));
      exit 2
    end;
    let trace = !trace = 1 in
    let o =
      if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~trace
      else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
    in
    (* A divergence exits non-zero without a result line. *)
    if not o.correct then exit 1;
    result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics
  end
