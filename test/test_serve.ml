(* The durable-log server: an [ok committed] line on the wire promises
   the COMMIT record is on the platter.  The crash test enforces the
   promise the hard way — SIGKILL the server process mid-stream and
   require a fresh scan of its image to recover every acked
   transaction. *)

open El_model
module Serve = El_serve.Serve
module Recovery = El_recovery.Recovery
module Experiment = El_harness.Experiment

let with_temp_dir f =
  let dir = Filename.temp_file "el_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let num_objects = 1_000

let config ~image ~fresh =
  { (Serve.default_config ~image) with Serve.fresh; num_objects }

(* Spawn a server child speaking the line protocol over two pipes.
   A real process (serve_child.exe, via posix_spawn) rather than a
   fork: the test runner has live domains by the time this suite
   runs, and it also gives SIGKILL a genuinely independent victim. *)
let child_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "serve_child.exe"

let with_server ?(group_fsync = false) ?(hybrid = false) ~image ~fresh f =
  let c2s_r, c2s_w = Unix.pipe ~cloexec:false () in
  let s2c_r, s2c_w = Unix.pipe ~cloexec:false () in
  (* the child must not inherit our ends, or closing ours would never
     show it EOF *)
  Unix.set_close_on_exec c2s_w;
  Unix.set_close_on_exec s2c_r;
  let args =
    Array.concat
      [
        [| child_exe; image |];
        (if fresh then [| "--fresh" |] else [||]);
        (if group_fsync then [| "--group-fsync" |] else [||]);
        (if hybrid then [| "--hybrid" |] else [||]);
      ]
  in
  let pid = Unix.create_process child_exe args c2s_r s2c_w Unix.stderr in
  Unix.close c2s_r;
  Unix.close s2c_w;
  let oc = Unix.out_channel_of_descr c2s_w in
  let ic = Unix.in_channel_of_descr s2c_r in
  Fun.protect
    ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      (try close_in ic with Sys_error _ -> ());
      (* reap, whatever state the test left the child in *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () -> f pid ic oc)

let command oc ic line =
  output_string oc (line ^ "\n");
  flush oc;
  input_line ic

let recovered_tids image =
  let b = El_store.Backend.file ~path:image in
  Fun.protect
    ~finally:(fun () -> El_store.Backend.close b)
    (fun () ->
      let r = Recovery.recover_store ~num_objects b in
      List.sort compare
        (List.map Ids.Tid.to_int r.Recovery.committed_tids))

let test_clean_session () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun pid ic oc ->
          Alcotest.(check string) "begin" "ok begun 1" (command oc ic "BEGIN 1");
          Alcotest.(check string)
            "write" "ok written 1 10 1"
            (command oc ic "WRITE 1 10 1");
          Alcotest.(check string)
            "commit" "ok committed 1" (command oc ic "COMMIT 1");
          Alcotest.(check string) "begin 2" "ok begun 2"
            (command oc ic "begin 2");
          Alcotest.(check string) "abort" "ok aborted 2"
            (command oc ic "ABORT 2");
          let frob = command oc ic "FROB 1" in
          Alcotest.(check bool)
            "unknown verb answers err" true
            (String.length frob >= 3 && String.sub frob 0 3 = "err");
          let stat = command oc ic "STAT" in
          Alcotest.(check bool)
            "stat after err: session survived" true
            (String.length stat >= 4 && String.sub stat 0 4 = "stat");
          Alcotest.(check string) "fresh image recovered nothing"
            "recovered 0" (command oc ic "RECOVERED");
          Alcotest.(check string) "quit" "bye" (command oc ic "QUIT");
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool)
            "clean exit" true
            (status = Unix.WEXITED 0));
      Alcotest.(check (list int))
        "scan finds the committed, not the aborted" [ 1 ]
        (recovered_tids image))

let test_sigkill_recovers_acked () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let total = 40 in
      let kill_after = 25 in
      let acked =
        with_server ~image ~fresh:true (fun pid ic oc ->
            let acked = ref [] in
            (try
               for tid = 1 to total do
                 ignore (command oc ic (Printf.sprintf "BEGIN %d" tid));
                 ignore
                   (command oc ic
                      (Printf.sprintf "WRITE %d %d %d" tid (tid mod num_objects)
                         tid));
                 let r = command oc ic (Printf.sprintf "COMMIT %d" tid) in
                 if r = Printf.sprintf "ok committed %d" tid then
                   acked := tid :: !acked;
                 if List.length !acked >= kill_after then raise Exit
               done
             with Exit -> ());
            Unix.kill pid Sys.sigkill;
            let _, status = Unix.waitpid [] pid in
            Alcotest.(check bool)
              "killed, not exited" true
              (status = Unix.WSIGNALED Sys.sigkill);
            List.rev !acked)
      in
      Alcotest.(check int) "enough acks before the kill" kill_after
        (List.length acked);
      let recovered = recovered_tids image in
      List.iter
        (fun tid ->
          Alcotest.(check bool)
            (Printf.sprintf "acked tid %d recovered after SIGKILL" tid)
            true (List.mem tid recovered))
        acked)

let stat_field stat key =
  let prefix = key ^ "=" in
  match
    List.find_opt
      (String.starts_with ~prefix)
      (String.split_on_char ' ' stat)
  with
  | Some tok ->
    String.sub tok (String.length prefix)
      (String.length tok - String.length prefix)
  | None -> Alcotest.failf "STAT field %s missing in %S" key stat

(* Same traffic against one server; returns its final STAT line after
   SIGKILLing it (so the on-disk image is exactly what was durable). *)
let run_traffic ~group_fsync ~image ~txs ~writes_per_tx =
  with_server ~group_fsync ~image ~fresh:true (fun pid ic oc ->
      for tid = 1 to txs do
        ignore (command oc ic (Printf.sprintf "BEGIN %d" tid));
        for w = 1 to writes_per_tx do
          let oid = ((tid * writes_per_tx) + w) mod num_objects in
          ignore (command oc ic (Printf.sprintf "WRITE %d %d %d" tid oid tid))
        done;
        Alcotest.(check string) "ack"
          (Printf.sprintf "ok committed %d" tid)
          (command oc ic (Printf.sprintf "COMMIT %d" tid))
      done;
      let stat = command oc ic "STAT" in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      stat)

(* Group fsync batches barriers but must not weaken the ack contract:
   an [ok committed] line still survives SIGKILL, and STAT reports the
   batching so callers (and the CI leg) can see the reduction. *)
let test_group_fsync_batches_and_survives () =
  with_temp_dir (fun dir ->
      let txs = 12 and writes_per_tx = 4 in
      let image_g = Filename.concat dir "grouped.img" in
      let image_i = Filename.concat dir "immediate.img" in
      let stat_g =
        run_traffic ~group_fsync:true ~image:image_g ~txs ~writes_per_tx
      in
      let stat_i =
        run_traffic ~group_fsync:false ~image:image_i ~txs ~writes_per_tx
      in
      Alcotest.(check string) "grouped STAT flags it" "on"
        (stat_field stat_g "group_fsync");
      Alcotest.(check string) "immediate STAT flags it" "off"
        (stat_field stat_i "group_fsync");
      let barriers s = int_of_string (stat_field s "barriers") in
      Alcotest.(check bool)
        (Printf.sprintf "grouped barriers (%d) < immediate (%d)"
           (barriers stat_g) (barriers stat_i))
        true
        (barriers stat_g < barriers stat_i);
      let fpc = float_of_string (stat_field stat_g "fsyncs_per_commit") in
      Alcotest.(check bool) "fsyncs_per_commit parses and is sane" true
        (fpc >= 0. && fpc < 100.);
      let expected = List.init txs (fun i -> i + 1) in
      Alcotest.(check (list int)) "grouped: every acked commit recovered"
        expected (recovered_tids image_g);
      Alcotest.(check (list int)) "immediate: every acked commit recovered"
        expected (recovered_tids image_i))

(* Restarting on the same image must see earlier epochs' commits and
   add its own without shadowing them. *)
let test_restart_accumulates () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun _pid ic oc ->
          ignore (command oc ic "BEGIN 1");
          ignore (command oc ic "WRITE 1 1 1");
          Alcotest.(check string) "first epoch commit" "ok committed 1"
            (command oc ic "COMMIT 1");
          ignore (command oc ic "QUIT"));
      with_server ~image ~fresh:false (fun _pid ic oc ->
          Alcotest.(check string) "sees epoch 0" "recovered 1 1"
            (command oc ic "RECOVERED");
          Alcotest.(check string) "epoch 0's write readable" "ok read 1 1"
            (command oc ic "READ 1");
          ignore (command oc ic "BEGIN 2");
          ignore (command oc ic "WRITE 2 2 1");
          Alcotest.(check string) "second epoch commit" "ok committed 2"
            (command oc ic "COMMIT 2");
          ignore (command oc ic "QUIT"));
      Alcotest.(check (list int))
        "both epochs recovered" [ 1; 2 ] (recovered_tids image))

(* ---- the batched session loop ---- *)

(* One write carrying several lines (a pipe delivers it whole, below
   PIPE_BUF), then the [n] replies it should produce. *)
let send oc text =
  output_string oc text;
  flush oc

let replies ic n = List.init n (fun _ -> input_line ic)

let test_batch_replies_in_order () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~group_fsync:true ~image ~fresh:true (fun _pid ic oc ->
          send oc
            "BEGIN 1\nWRITE 1 10 1\nWRITE 1 11 1\nWRITE 1 12 1\n\
             WRITE 1 13 1\nCOMMIT 1\nSTAT\n";
          match replies ic 7 with
          | [ b; w1; w2; w3; w4; c; stat ] ->
            Alcotest.(check (list string))
              "six replies in order"
              [ "ok begun 1"; "ok written 1 10 1"; "ok written 1 11 1";
                "ok written 1 12 1"; "ok written 1 13 1"; "ok committed 1" ]
              [ b; w1; w2; w3; w4; c ];
            (* the commit's segments went out as one pwrite + fsync *)
            Alcotest.(check (list string))
              "STAT: one pwrite, one barrier, one commit" [ "1"; "1"; "1" ]
              (List.map (stat_field stat) [ "pwrites"; "barriers"; "commits" ])
          | _ -> assert false))

let test_batch_survives_err () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun _pid ic oc ->
          send oc "BEGIN 1\nFROB 1\nWRITE 1 10 1\nBEGIN 1\nCOMMIT 1\n";
          match replies ic 5 with
          | [ b; frob; w; again; c ] ->
            Alcotest.(check bool) "unknown verb answers err" true
              (String.starts_with ~prefix:"err " frob);
            Alcotest.(check bool) "double begin answers err" true
              (String.starts_with ~prefix:"err " again);
            Alcotest.(check (list string))
              "the batch ran on past both errors"
              [ "ok begun 1"; "ok written 1 10 1"; "ok committed 1" ]
              [ b; w; c ]
          | _ -> assert false);
      Alcotest.(check (list int)) "the commit is durable" [ 1 ]
        (recovered_tids image))

let test_batch_quit_stops () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun pid ic oc ->
          send oc
            "BEGIN 1\nWRITE 1 10 1\nCOMMIT 1\nQUIT\nBEGIN 2\n\
             WRITE 2 11 2\nCOMMIT 2\n";
          Alcotest.(check (list string))
            "replies up to and including bye"
            [ "ok begun 1"; "ok written 1 10 1"; "ok committed 1"; "bye" ]
            (replies ic 4);
          Alcotest.(check bool) "nothing after bye" true
            (match input_line ic with
            | exception End_of_file -> true
            | _ -> false);
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0));
      Alcotest.(check (list int)) "the lines after QUIT never ran" [ 1 ]
        (recovered_tids image))

let test_split_line_runs_once () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun _pid ic oc ->
          (* the reply to BEGIN proves the server has read the first
             write, half a WRITE line included *)
          send oc "BEGIN 1\nWRITE 1 1";
          Alcotest.(check string) "first write's whole line" "ok begun 1"
            (input_line ic);
          send oc "0 1\nSTAT\n";
          Alcotest.(check string) "the split line ran, whole" "ok written 1 10 1"
            (input_line ic);
          Alcotest.(check bool) "and only once" true
            (String.starts_with ~prefix:"stat " (input_line ic))))

let test_eof_runs_last_line () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun pid ic oc ->
          send oc "BEGIN 1\nWRITE 1 10 1\nCOMMIT 1";
          close_out oc;
          Alcotest.(check (list string))
            "the unterminated COMMIT ran"
            [ "ok begun 1"; "ok written 1 10 1"; "ok committed 1" ]
            (replies ic 3);
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "clean exit at EOF" true
            (status = Unix.WEXITED 0));
      Alcotest.(check (list int)) "and is durable" [ 1 ] (recovered_tids image))

(* A partial line that fills the server's 64 KiB read buffer is
   refused and ends the session; the image stays servable. *)
let test_line_cap () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun pid ic oc ->
          (* exactly one buffer's worth: every byte is in the pipe
             before the server can answer, and a server with no cap
             waits for more instead of answering *)
          send oc (String.make 65536 'A');
          let ready, _, _ =
            Unix.select [ Unix.descr_of_in_channel ic ] [] [] 30.0
          in
          Alcotest.(check bool) "a full buffer is answered" true (ready <> []);
          Alcotest.(check string) "the line is refused"
            "err line longer than 65536 bytes" (input_line ic);
          Alcotest.(check bool) "and the session ended" true
            (match input_line ic with
            | exception End_of_file -> true
            | _ -> false);
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0));
      with_server ~image ~fresh:false (fun _pid ic oc ->
          Alcotest.(check string) "a fresh session serves BEGIN" "ok begun 1"
            (command oc ic "BEGIN 1")))

(* Pipelined transactions under group fsync: batches of whole
   transactions in one write each, SIGKILL while the last batch is
   being served, and every write whose commit was acked must READ
   back after a restart. *)
let test_pipelined_group_fsync_sigkill () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let writes = 6 and per_batch = 8 and batches = 6 in
      let oid tid w = (tid * writes) + w in
      let batch first =
        let b = Buffer.create 1024 in
        for tid = first to first + per_batch - 1 do
          Printf.bprintf b "BEGIN %d\n" tid;
          for w = 0 to writes - 1 do
            Printf.bprintf b "WRITE %d %d %d\n" tid (oid tid w) tid
          done;
          Printf.bprintf b "COMMIT %d\n" tid
        done;
        Buffer.contents b
      in
      let acked =
        with_server ~group_fsync:true ~image ~fresh:true (fun pid ic oc ->
            let acked = ref [] in
            for k = 0 to batches - 1 do
              let first = 1 + (k * per_batch) in
              send oc (batch first);
              (* the last batch is cut short: the kill lands while the
                 server is still answering it *)
              let txs = if k = batches - 1 then per_batch / 2 else per_batch in
              for tid = first to first + txs - 1 do
                ignore (replies ic (1 + writes));
                if input_line ic = Printf.sprintf "ok committed %d" tid then
                  acked := tid :: !acked
              done
            done;
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            List.rev !acked)
      in
      Alcotest.(check int) "every commit read was acked"
        (((batches - 1) * per_batch) + (per_batch / 2))
        (List.length acked);
      let t = Serve.start (config ~image ~fresh:false) in
      Fun.protect
        ~finally:(fun () -> Serve.close t)
        (fun () ->
          List.iter
            (fun tid ->
              for w = 0 to writes - 1 do
                let o = oid tid w in
                Alcotest.(check (option string))
                  (Printf.sprintf "acked write %d of tid %d" o tid)
                  (Some (Printf.sprintf "ok read %d %d" o tid))
                  (fst (Serve.exec t (Printf.sprintf "READ %d" o)))
              done)
            acked))

(* A clean shutdown under group fsync writes out what the open
   transaction's sealed blocks staged after the last COMMIT, leaving
   the image a per-segment-fsync server leaves. *)
let test_close_writes_staged () =
  with_temp_dir (fun dir ->
      let session ~group_fsync name =
        let image = Filename.concat dir name in
        let t =
          Serve.start { (config ~image ~fresh:true) with Serve.group_fsync }
        in
        List.iter
          (fun line -> ignore (Serve.exec t line))
          ([ "BEGIN 1"; "WRITE 1 1 1"; "COMMIT 1"; "BEGIN 2" ]
          @ List.init 80 (fun i -> Printf.sprintf "WRITE 2 %d 2" (i + 10)));
        let written =
          match Serve.exec t "STAT" with
          | Some stat, _ -> int_of_string (stat_field stat "bytes")
          | None, _ -> assert false
        in
        Serve.close t;
        let ic = open_in_bin image in
        let bytes = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (written, bytes)
      in
      let written_g, image_g = session ~group_fsync:true "grouped.img" in
      let _, image_i = session ~group_fsync:false "immediate.img" in
      Alcotest.(check bool) "segments were staged at close" true
        (written_g < String.length image_g);
      Alcotest.(check string) "close wrote them: images byte-identical" image_i
        image_g)

(* Start-up scans the image once: attach's scan, cut at the torn tail,
   must recover what the old attach-then-rescan path recovered.  The
   torn segment holds a whole COMMIT entry, so a scan that kept the
   partial segment would recover a transaction the truncated image
   does not hold. *)
let test_torn_tail_single_scan () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~image ~fresh:true (fun _pid ic oc ->
          send oc "BEGIN 1\nWRITE 1 10 1\nCOMMIT 1\nQUIT\n";
          ignore (replies ic 4));
      (* a predecessor died mid-pwrite: a segment whose COMMIT entry
         landed, torn inside the entry after it *)
      let b = El_store.Backend.file ~path:image in
      let tid = Ids.Tid.of_int 2 and timestamp = Time.zero in
      let torn_at =
        let t = El_store.Log_store.attach b in
        let start = El_store.Backend.size b in
        El_store.Log_store.append_block t ~gen:0 ~slot:7
          [ Log_record.begin_ ~tid ~size:8 ~timestamp;
            Log_record.data ~tid ~oid:(Ids.Oid.of_int 11) ~version:2 ~size:8
              ~timestamp;
            Log_record.commit ~tid ~size:8 ~timestamp;
            Log_record.data ~tid ~oid:(Ids.Oid.of_int 12) ~version:2 ~size:8
              ~timestamp ];
        start + El_store.Codec.header_bytes
        + (3 * El_store.Codec.entry_bytes) + 20
      in
      El_store.Backend.truncate b ~len:torn_at;
      El_store.Backend.close b;
      let copy name =
        let path = Filename.concat dir name in
        let ic = open_in_bin image in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin path in
        output_string oc data;
        close_out oc;
        path
      in
      let two_scan = copy "two-scan.img" and one_scan = copy "one-scan.img" in
      Alcotest.(check bool) "the image is torn" true
        (let b = El_store.Backend.file ~path:image in
         Fun.protect
           ~finally:(fun () -> El_store.Backend.close b)
           (fun () -> (El_store.Log_store.scan b).El_store.Log_store.s_torn_tail));
      (* the old start-up: attach, then rescan the truncated image *)
      let expected, epoch, position =
        let b = El_store.Backend.file ~path:two_scan in
        Fun.protect
          ~finally:(fun () -> El_store.Backend.close b)
          (fun () ->
            let t = El_store.Log_store.attach b in
            ( Recovery.recover_store ~num_objects b,
              El_store.Log_store.epoch t,
              El_store.Log_store.position t ))
      in
      Alcotest.(check (list int)) "the torn COMMIT is not recovered" [ 1 ]
        (List.sort compare (List.map Ids.Tid.to_int expected.Recovery.committed_tids));
      let b = El_store.Backend.file ~path:one_scan in
      Fun.protect
        ~finally:(fun () -> El_store.Backend.close b)
        (fun () ->
          let t, s = El_store.Log_store.attach_scan b in
          Alcotest.(check (pair int int)) "same new epoch and seq"
            (epoch, position)
            (El_store.Log_store.epoch t, El_store.Log_store.position t);
          Alcotest.(check bool) "attach's scan = a rescan of its result" true
            (s = El_store.Log_store.scan b));
      let t = Serve.start (config ~image ~fresh:false) in
      Fun.protect
        ~finally:(fun () -> Serve.close t)
        (fun () ->
          Alcotest.(check string) "Serve.recovered = the two-scan path"
            (Marshal.to_string expected [])
            (Marshal.to_string (Serve.recovered t) [])))

(* The hybrid manager serves too: SIGKILL it with a transaction open,
   with and without group fsync, and every acked write must READ back
   after a restart. *)
let test_hybrid_sigkill_reads_back () =
  List.iter
    (fun group_fsync ->
      with_temp_dir (fun dir ->
          let image = Filename.concat dir "disk.img" in
          let txs = 60 and writes = 4 in
          let oid tid w = (tid * writes) + w in
          let acked =
            with_server ~group_fsync ~hybrid:true ~image ~fresh:true
              (fun pid ic oc ->
                let acked = ref [] in
                for tid = 1 to txs do
                  ignore (command oc ic (Printf.sprintf "BEGIN %d" tid));
                  for w = 0 to writes - 1 do
                    ignore
                      (command oc ic
                         (Printf.sprintf "WRITE %d %d %d" tid (oid tid w) tid))
                  done;
                  if
                    command oc ic (Printf.sprintf "COMMIT %d" tid)
                    = Printf.sprintf "ok committed %d" tid
                  then acked := tid :: !acked
                done;
                ignore (command oc ic "BEGIN 1000");
                ignore (command oc ic "WRITE 1000 1 1000");
                Unix.kill pid Sys.sigkill;
                ignore (Unix.waitpid [] pid);
                List.rev !acked)
          in
          Alcotest.(check int) "every commit acked" txs (List.length acked);
          let t =
            Serve.start
              {
                (config ~image ~fresh:false) with
                Serve.kind = Experiment.Hybrid [| 32; 32 |];
              }
          in
          Fun.protect
            ~finally:(fun () -> Serve.close t)
            (fun () ->
              List.iter
                (fun tid ->
                  for w = 0 to writes - 1 do
                    let o = oid tid w in
                    Alcotest.(check (option string))
                      (Printf.sprintf "group_fsync %b: acked write %d of tid %d"
                         group_fsync o tid)
                      (Some (Printf.sprintf "ok read %d %d" o tid))
                      (fst (Serve.exec t (Printf.sprintf "READ %d" o)))
                  done)
                acked)))
    [ false; true ]

(* The FW baseline flushes nothing to a stable database, so a restart
   would lose acked writes: the server refuses it before it opens the
   image. *)
let test_fw_refused () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      Alcotest.check_raises "FW refused"
        (Invalid_argument "Serve.start: the FW baseline has no recovery model")
        (fun () ->
          ignore
            (Serve.start
               {
                 (config ~image ~fresh:true) with
                 Serve.kind = Experiment.Firewall 200;
               }));
      Alcotest.(check bool) "image untouched" false (Sys.file_exists image))

(* An object count the flush drives do not divide: the plant pads its
   range, and the server still serves exactly the requested one. *)
let test_ragged_object_count () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let t =
        Serve.start
          { (config ~image ~fresh:true) with Serve.num_objects = 12_345 }
      in
      Fun.protect
        ~finally:(fun () -> Serve.close t)
        (fun () ->
          List.iter
            (fun (line, reply) ->
              Alcotest.(check (option string)) line (Some reply)
                (fst (Serve.exec t line)))
            [
              ("BEGIN 1", "ok begun 1");
              ("WRITE 1 12344 1", "ok written 1 12344 1");
              ("COMMIT 1", "ok committed 1");
              ("READ 12345", "err oid 12345 out of range");
            ]))

(* Recovery pairs records by tid, so a BEGIN that reuses one must be
   refused, or a restart would pair the old incarnation's records with
   the new one's.  [session] runs on a fresh image, [after_restart] on
   a server attached to it; an expected reply of "err" matches any
   error. *)
let reused_tid_probe ~session ~after_restart =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let run ~fresh lines =
        let t = Serve.start (config ~image ~fresh) in
        Fun.protect
          ~finally:(fun () -> Serve.close t)
          (fun () ->
            List.iter
              (fun (line, want) ->
                let got = Option.value ~default:"" (fst (Serve.exec t line)) in
                if want = "err" then
                  Alcotest.(check bool) (line ^ " answers err") true
                    (String.starts_with ~prefix:"err " got)
                else Alcotest.(check string) line want got)
              lines)
      in
      run ~fresh:true session;
      run ~fresh:false after_restart)

let test_committed_tid_not_reused () =
  reused_tid_probe
    ~session:
      [
        ("BEGIN 1", "ok begun 1");
        ("WRITE 1 5 7", "ok written 1 5 7");
        ("COMMIT 1", "ok committed 1");
        ("BEGIN 1", "err");
        ("WRITE 1 6 9", "err");
        ("BEGIN 2", "ok begun 2");
        ("WRITE 2 8 3", "ok written 2 8 3");
        ("COMMIT 2", "ok committed 2");
      ]
    ~after_restart:
      [
        ("READ 5", "ok read 5 7");
        ("READ 6", "ok read 6 0");
        ("READ 8", "ok read 8 3");
        ("BEGIN 2", "err");
        ("BEGIN 3", "ok begun 3");
      ]

let test_aborted_tid_not_reused () =
  reused_tid_probe
    ~session:
      [
        ("BEGIN 1", "ok begun 1");
        ("WRITE 1 5 7", "ok written 1 5 7");
        ("ABORT 1", "ok aborted 1");
        ("BEGIN 2", "ok begun 2");
        ("WRITE 2 8 3", "ok written 2 8 3");
        ("COMMIT 2", "ok committed 2");
        ("BEGIN 1", "err");
        ("WRITE 1 6 9", "err");
        ("COMMIT 1", "err");
      ]
    ~after_restart:
      [
        ("READ 5", "ok read 5 0");
        ("READ 6", "ok read 6 0");
        ("READ 8", "ok read 8 3");
        ("BEGIN 1", "err");
      ]

(* In-process protocol coverage that needs no fork. *)
let test_exec_protocol () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let t = Serve.start (config ~image ~fresh:true) in
      Fun.protect
        ~finally:(fun () -> Serve.close t)
        (fun () ->
          let reply line = fst (Serve.exec t line) in
          Alcotest.(check bool) "blank line is silent" true
            (Serve.exec t "   " = (None, true));
          Alcotest.(check (option string))
            "bad tid" (Some "err bad integer \"x\"") (reply "BEGIN x");
          Alcotest.(check (option string))
            "oid bounds checked"
            (Some (Printf.sprintf "err oid %d out of range" num_objects))
            (ignore (reply "BEGIN 3");
             reply (Printf.sprintf "WRITE 3 %d 1" num_objects));
          Alcotest.(check (option string))
            "commit acks" (Some "ok committed 3")
            (ignore (reply "WRITE 3 5 1");
             reply "COMMIT 3");
          Alcotest.(check (option string))
            "READ of a never-written oid" (Some "ok read 7 0") (reply "READ 7");
          Alcotest.(check (option string))
            "READ bounds checked"
            (Some (Printf.sprintf "err oid %d out of range" num_objects))
            (reply (Printf.sprintf "READ %d" num_objects));
          Alcotest.(check bool) "quit stops" true
            (Serve.exec t "QUIT" = (Some "bye", false))))

let suite =
  [
    Alcotest.test_case "clean session, scan agrees" `Quick test_clean_session;
    Alcotest.test_case "SIGKILL loses no acked commit" `Quick
      test_sigkill_recovers_acked;
    Alcotest.test_case "group fsync batches, SIGKILL-safe" `Quick
      test_group_fsync_batches_and_survives;
    Alcotest.test_case "restart accumulates epochs" `Quick
      test_restart_accumulates;
    Alcotest.test_case "protocol errors are survivable" `Quick
      test_exec_protocol;
    Alcotest.test_case "batch: seven lines, seven replies in order" `Quick
      test_batch_replies_in_order;
    Alcotest.test_case "batch: an err mid-batch does not stop it" `Quick
      test_batch_survives_err;
    Alcotest.test_case "batch: QUIT mid-batch runs nothing after" `Quick
      test_batch_quit_stops;
    Alcotest.test_case "a line split across two writes runs once" `Quick
      test_split_line_runs_once;
    Alcotest.test_case "a last line without newline runs at EOF" `Quick
      test_eof_runs_last_line;
    Alcotest.test_case "a line over 64 KiB is refused, ends the session"
      `Quick test_line_cap;
    Alcotest.test_case "pipelined group fsync: SIGKILL loses no ack" `Quick
      test_pipelined_group_fsync_sigkill;
    Alcotest.test_case "clean shutdown writes what group fsync staged"
      `Quick test_close_writes_staged;
    Alcotest.test_case "torn tail: one scan = attach + rescan" `Quick
      test_torn_tail_single_scan;
    Alcotest.test_case "hybrid: SIGKILL loses no acked write" `Quick
      test_hybrid_sigkill_reads_back;
    Alcotest.test_case "FW is refused before the image is opened" `Quick
      test_fw_refused;
    Alcotest.test_case "a ragged object count serves its last oid" `Quick
      test_ragged_object_count;
    Alcotest.test_case "a committed tid cannot begin again" `Quick
      test_committed_tid_not_reused;
    Alcotest.test_case "an aborted tid cannot begin again" `Quick
      test_aborted_tid_not_reused;
  ]
