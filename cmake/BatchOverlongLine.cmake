# `momsim batch` caps a request line as a serve connection does: a
# stream whose second line runs past 1 MiB without a newline gets the
# first request's answer, then one structured bad_request naming the
# limit, and nothing else; batch stops reading, says so on stderr and
# exits 1.
#
# Usage: cmake -DMOMSIM=<path> -DWORKDIR=<dir> -P BatchOverlongLine.cmake

if(NOT MOMSIM)
  message(FATAL_ERROR "MOMSIM not set")
endif()
if(NOT WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORKDIR}/batch_overlong_line)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

set(limit 1048576)
math(EXPR over "${limit} + 1")
string(REPEAT "x" ${over} big)
set(ok "{\"schemaVersion\":2,\"id\":\"ok1\",\"isas\":[\"mmx\"],\"threads\":[1],\"memModels\":[\"perfect\"],\"quick\":true,\"maxCycles\":50000}")
# A request after the long line must never be read, let alone answered.
file(WRITE ${dir}/input.jsonl "${ok}\n${big}\n${ok}\n")

execute_process(
  COMMAND ${MOMSIM} batch --no-timing
  INPUT_FILE ${dir}/input.jsonl
  OUTPUT_FILE ${dir}/out.jsonl
  ERROR_FILE ${dir}/err.txt
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "batch exited with ${rc}, want 1 "
                      "(see ${dir}/err.txt)")
endif()

file(STRINGS ${dir}/out.jsonl lines)
list(LENGTH lines count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "expected 2 response lines, got ${count} "
                      "(see ${dir}/out.jsonl)")
endif()
list(GET lines 0 first)
list(GET lines 1 second)
if(NOT first MATCHES "\"id\":\"ok1\"" OR NOT first MATCHES "\"ok\":true")
  message(FATAL_ERROR "first response is not ok1's answer: ${first}")
endif()
if(NOT second MATCHES "\"code\":\"bad_request\"" OR
   NOT second MATCHES "exceeds ${limit} bytes")
  message(FATAL_ERROR "second response does not name the limit: ${second}")
endif()

file(READ ${dir}/err.txt err)
if(NOT err MATCHES "request line exceeds ${limit} bytes")
  message(FATAL_ERROR "no stderr line about the long line: ${err}")
endif()

message(STATUS "batch_overlong_line: earlier answer, one bad_request, exit 1")
