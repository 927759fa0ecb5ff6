(* Machine-speed reference. The host this benchmark was tuned on (a
   shared 2-vCPU KVM guest) runs allocation-heavy code up to 1.5x slower
   when its neighbours load the memory system, in regimes that last
   minutes: a cold E3 pass took 9.2 s in one and 14.6 s in another. No
   amount of work inside one run averages that away, and ten raw runs of
   the census workload spread by 42% of their median.

   So between passes the parent process times this fixed kernel (median
   of [reps] runs, about half a second), and each pass's times are
   reported scaled by [nominal_s / kernel time], the kernel time being
   the mean of the measurements right before and right after the pass:
   seconds on a machine where the kernel takes [nominal_s]. That follows
   the regime changes (the same census spread fell to 10%), at the price
   of the kernel's own noise, a few percent, in steady periods. The
   parent runs it, so the passes' heaps and allocation counts never see
   it. It allocates like the workloads do (small blocks, a major-heap
   array, sorting, hashing), because on this host a compute-only kernel
   does not slow down with them, and it uses only the standard library,
   so no change to the repository's code can speed it up or slow it
   down. *)

let nominal_s = 0.05

let kernel () =
  let n = 100_000 in
  let a = Array.init n (fun i -> (i * 7919) land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create 4096 in
  Array.iteri (fun i x -> Hashtbl.replace h (x land 8191) i) a;
  let l = List.init n (fun i -> (i, a.(i))) in
  let s = List.fold_left (fun acc (i, x) -> acc + (i lxor x) + Hashtbl.find h (x land 8191)) 0 l in
  Sys.opaque_identity s

let reps = 9

(* Median seconds of [reps] runs of the kernel. The heap is compacted
   afterwards, so the next pass does not fork with the kernel's garbage
   in its resident set. *)
let measure () =
  let times =
    Array.init reps (fun _ ->
        let t0 = Layers.now () in
        ignore (kernel ());
        Layers.ns_s (Layers.now () - t0))
  in
  Array.sort Float.compare times;
  Gc.compact ();
  times.(reps / 2)
