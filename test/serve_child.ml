(* Child process for the serve crash tests: speaks the el-sim serve
   line protocol over stdin/stdout against the image given in argv.
   A separate executable because the test runner spawns domains
   (lib/par), after which Unix.fork is unavailable — the tests
   create_process this instead. *)

let () =
  let image = Sys.argv.(1) in
  let flag name =
    Array.exists (fun a -> a = name)
      (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  in
  let fresh = flag "--fresh" in
  let group_fsync = flag "--group-fsync" in
  let defaults = El_serve.Serve.default_config ~image in
  let kind =
    if flag "--hybrid" then El_harness.Experiment.Hybrid [| 32; 32 |]
    else defaults.El_serve.Serve.kind
  in
  let t =
    El_serve.Serve.start
      { defaults with El_serve.Serve.fresh; kind; num_objects = 1_000; group_fsync }
  in
  El_serve.Serve.serve_channel t stdin stdout;
  El_serve.Serve.close t
