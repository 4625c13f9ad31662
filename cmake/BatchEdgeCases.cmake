# Edge-case acceptance gate for the `momsim batch` input framing and
# scheduling paths the happy-path gate never exercises:
#
#  (a) a final request line WITHOUT a trailing newline is still served
#      (the reader pushes the last partial line at EOF);
#  (b) blank lines are skipped, not answered — response count equals
#      request count, not line count;
#  (c) a stream much deeper than the admission bound (backpressure:
#      40 requests against the default bound of 14 unanswered ones)
#      completes with every response present, in input order;
#  (d) all of the above are byte-identical across two runs.
#
# Usage: cmake -DMOMSIM=<path> -DWORKDIR=<dir> -P BatchEdgeCases.cmake

if(NOT MOMSIM)
  message(FATAL_ERROR "MOMSIM not set")
endif()
if(NOT WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORKDIR}/batch_edge_cases)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# ---- (a)+(b): blank lines between requests, no newline after the last
set(req1 "{\"schemaVersion\":1,\"id\":\"first\",\"isas\":[\"mmx\"],\"threads\":[1],\"memModels\":[\"perfect\"],\"quick\":true,\"maxCycles\":100000}")
set(req2 "{\"schemaVersion\":1,\"id\":\"last-no-newline\",\"isas\":[\"mom\"],\"threads\":[1],\"memModels\":[\"perfect\"],\"quick\":true,\"maxCycles\":100000}")
# No trailing newline after req2, blank lines around req1.
file(WRITE ${dir}/framing.jsonl "\n${req1}\n\n\n${req2}")

foreach(run 1 2)
  execute_process(
    COMMAND ${MOMSIM} batch --no-timing
    INPUT_FILE ${dir}/framing.jsonl
    OUTPUT_FILE ${dir}/framing${run}.out
    ERROR_FILE ${dir}/framing${run}.err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "batch framing run ${run} exited with ${rc} "
                        "(see ${dir}/framing${run}.err)")
  endif()
endforeach()

file(STRINGS ${dir}/framing1.out lines)
list(LENGTH lines count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR
          "batch framing: expected 2 responses (blank lines skipped, "
          "unterminated final line served), got ${count} "
          "(see ${dir}/framing1.out)")
endif()
list(GET lines 0 line0)
list(GET lines 1 line1)
if(NOT line0 MATCHES "\"id\":\"first\"" OR NOT line0 MATCHES "\"ok\":true")
  message(FATAL_ERROR "batch framing: response 0 wrong: ${line0}")
endif()
if(NOT line1 MATCHES "\"id\":\"last-no-newline\"" OR
   NOT line1 MATCHES "\"ok\":true")
  message(FATAL_ERROR
          "batch framing: unterminated final request not served: "
          "${line1}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${dir}/framing1.out ${dir}/framing2.out
  RESULT_VARIABLE same
)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "batch framing: two runs differ")
endif()

# ---- (c): stream deeper than the admission bound ----
set(stream "")
set(n 40)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  string(APPEND stream "{\"schemaVersion\":1,\"id\":\"bp-${i}\",\"isas\":[\"mmx\"],\"threads\":[1],\"memModels\":[\"perfect\"],\"quick\":true,\"maxCycles\":20000}\n")
endforeach()
file(WRITE ${dir}/deep.jsonl "${stream}")

execute_process(
  COMMAND ${MOMSIM} batch --no-timing
  INPUT_FILE ${dir}/deep.jsonl
  OUTPUT_FILE ${dir}/deep.out
  ERROR_FILE ${dir}/deep.err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch backpressure run exited with ${rc} "
                      "(see ${dir}/deep.err)")
endif()
file(STRINGS ${dir}/deep.out deep_lines)
list(LENGTH deep_lines deep_count)
if(NOT deep_count EQUAL ${n})
  message(FATAL_ERROR
          "batch backpressure: expected ${n} responses, got "
          "${deep_count} (see ${dir}/deep.out)")
endif()
set(i 0)
foreach(line IN LISTS deep_lines)
  if(NOT line MATCHES "\"id\":\"bp-${i}\"")
    message(FATAL_ERROR
            "batch backpressure: response ${i} out of order: ${line}")
  endif()
  math(EXPR i "${i} + 1")
endforeach()

message(STATUS
        "batch_edge_cases: unterminated final line, blank-line "
        "skipping, 40-deep backpressure in order")
