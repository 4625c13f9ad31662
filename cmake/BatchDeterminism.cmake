# The batch-mode acceptance gate for `momsim batch`, the JSONL
# traffic-serving entry point:
#
#  (a) a stream of requests — two sweeps plus two malformed/invalid
#      ones — executed concurrently produces one response line per
#      request, each tagged with the request's id, in input order;
#  (b) running the identical stream twice under --no-timing is
#      byte-identical (responses depend on requests, never on how
#      their completions interleave);
#  (c) error requests come back as structured ok:false responses in
#      their slot instead of killing the stream.
#
# Usage: cmake -DMOMSIM=<path> -DWORKDIR=<dir> -P BatchDeterminism.cmake

if(NOT MOMSIM)
  message(FATAL_ERROR "MOMSIM not set")
endif()
if(NOT WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORKDIR}/batch_determinism)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# Small sweeps (quick scale, capped cycles) so the gate runs in
# seconds: one by bench name, one by explicit axes, one unknown-
# workload error, one malformed JSON line.
file(WRITE ${dir}/requests.jsonl
"{\"schemaVersion\":1,\"id\":\"req-axes\",\"isas\":[\"mmx\",\"mom\"],\"threads\":[1,2],\"memModels\":[\"perfect\"],\"quick\":true,\"maxCycles\":200000}
{\"schemaVersion\":1,\"id\":\"req-fig6\",\"bench\":\"fig6\",\"quick\":true,\"maxCycles\":200000}
{\"schemaVersion\":1,\"id\":\"req-bad-workload\",\"workloads\":[\"nonsense\"],\"quick\":true}
this is not json
")

foreach(run 1 2)
  execute_process(
    COMMAND ${MOMSIM} batch --no-timing
    INPUT_FILE ${dir}/requests.jsonl
    OUTPUT_FILE ${dir}/run${run}.out
    ERROR_FILE ${dir}/run${run}.err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "momsim batch (run ${run}) exited with ${rc} "
                        "(see ${dir}/run${run}.err)")
  endif()
endforeach()

# (a) one response per request, in input order, tagged with the ids.
file(STRINGS ${dir}/run1.out lines)
list(LENGTH lines count)
if(NOT count EQUAL 4)
  message(FATAL_ERROR
          "batch: expected 4 response lines, got ${count} "
          "(see ${dir}/run1.out)")
endif()
list(GET lines 0 line0)
list(GET lines 1 line1)
list(GET lines 2 line2)
list(GET lines 3 line3)
if(NOT line0 MATCHES "\"id\":\"req-axes\"" OR
   NOT line0 MATCHES "\"ok\":true")
  message(FATAL_ERROR "batch: response 0 is not req-axes ok: ${line0}")
endif()
if(NOT line1 MATCHES "\"id\":\"req-fig6\"" OR
   NOT line1 MATCHES "\"ok\":true" OR
   NOT line1 MATCHES "\"bench\":\"fig6\"")
  message(FATAL_ERROR "batch: response 1 is not req-fig6 ok: ${line1}")
endif()

# (c) the structured error paths that used to exit().
if(NOT line2 MATCHES "\"id\":\"req-bad-workload\"" OR
   NOT line2 MATCHES "\"ok\":false" OR
   NOT line2 MATCHES "\"code\":\"unknown_workload\"")
  message(FATAL_ERROR
          "batch: response 2 is not a structured unknown_workload "
          "error: ${line2}")
endif()
if(NOT line3 MATCHES "\"ok\":false" OR
   NOT line3 MATCHES "\"code\":\"bad_request\"")
  message(FATAL_ERROR
          "batch: response 3 is not a structured bad_request error: "
          "${line3}")
endif()

# (b) byte-identical across runs.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${dir}/run1.out ${dir}/run2.out
  RESULT_VARIABLE same
)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
          "batch: two runs of the same request stream differ "
          "(${dir}/run1.out vs ${dir}/run2.out)")
endif()

message(STATUS
        "batch_determinism: 4 concurrent requests, in-order tagged "
        "responses, structured errors, byte-identical re-run")
