type t = Logical_store.t

let create ?flush_spin ?flush_sleep ?durability ?rid_base ?rid_stride ?wal_segment_bytes
    ?ckpt_full_every ?auto_ckpt_bytes ~mgr ~name () =
  let records = Rid.Tbl.create 256 in
  (* No [faults]: the store keeps a private inert plane, so its lock points
     and WAL forces never fail and never join a shared numbering. *)
  Logical_store.create ?flush_spin ?flush_sleep ?durability ?rid_base ?rid_stride
    ?wal_segment_bytes ?ckpt_full_every ?auto_ckpt_bytes ~mgr ~name
    {
      Logical_store.get = (fun rid -> Rid.Tbl.find_opt records rid);
      put = (fun rid payload -> Rid.Tbl.replace records rid payload);
      remove = (fun rid -> Rid.Tbl.remove records rid);
      mem = (fun rid -> Rid.Tbl.mem records rid);
      iter = (fun f -> Rid.Tbl.iter (fun rid _ -> f rid) records);
      count = (fun () -> Rid.Tbl.length records);
      reserve = ignore;
      flush = ignore;
      after_anchor = ignore;
      crash = (fun () -> Rid.Tbl.reset records);
      counters = (fun () -> []);
      filter = None;
    }

let ops = Logical_store.ops
