# Checks that dmv_serve refuses malformed arguments and that
# DMV_NUM_THREADS falls back to the hardware count when out of range.
#
#   cmake -DEXE=<dmv_serve> -DCHECK=flags|env -DWORK=<scratch dir>
#         -P tools/serve_args.cmake
#
# CHECK=flags: every refused value must exit 2 and every accepted one 0.
#   stdin is at EOF, so no request and no pool job runs either way.
# CHECK=env: one `stats` request per run; server.threads must be the
#   hardware count (a run with DMV_NUM_THREADS unset) for every malformed
#   or out-of-range value, and the value itself for an accepted one.

cmake_minimum_required(VERSION 3.16)

foreach(var EXE CHECK WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_args.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/empty" "")
file(WRITE "${WORK}/stats" "{\"id\":1,\"method\":\"stats\"}\n")

set(failures "")

# Runs dmv_serve with DMV_NUM_THREADS set to `env` ("" = unset) and the
# given arguments on `input`; sets `status` and `output`. A server that
# accepts a bad --port listens instead of exiting; the timeout stops it.
function(run_serve env input)
  if(env STREQUAL "")
    unset(ENV{DMV_NUM_THREADS})
  else()
    set(ENV{DMV_NUM_THREADS} "${env}")
  endif()
  execute_process(COMMAND "${EXE}" ${ARGN}
                  INPUT_FILE "${input}"
                  TIMEOUT 20
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_QUIET)
  set(status "${result}" PARENT_SCOPE)
  set(output "${out}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "flags")
  # One case per list entry, its arguments separated by `|`.
  # 17592186044416 MiB is 2^64 bytes.
  set(refused
      "--port|70000" "--port|-1" "--port|abc" "--port|80x" "--port"
      "--threads|abc" "--threads|2x" "--threads|0" "--threads|-3"
      "--threads|1025" "--threads|2000"
      "--cache-mb|-1" "--cache-mb|12junk" "--cache-mb|abc"
      "--cache-mb|17592186044416")
  set(accepted
      "--threads|1" "--threads|1024" "--cache-mb|0"
      "--cache-mb|17592186044415")
  foreach(entry IN LISTS refused accepted)
    string(REPLACE "|" ";" args "${entry}")
    run_serve("" "${WORK}/empty" ${args})
    if(entry IN_LIST refused)
      set(want 2)
    else()
      set(want 0)
    endif()
    if(NOT status EQUAL want)
      string(REPLACE "|" " " shown "${entry}")
      list(APPEND failures "dmv_serve ${shown} exited '${status}', want ${want}")
    endif()
  endforeach()
elseif(CHECK STREQUAL "env")
  macro(threads_reported env)
    run_serve("${env}" "${WORK}/stats")
    string(REGEX MATCH "\"threads\":([0-9]+)" match "${output}")
    if(NOT status EQUAL 0 OR match STREQUAL "")
      list(APPEND failures
           "DMV_NUM_THREADS='${env}': exit '${status}', output '${output}'")
      set(threads "")
    else()
      set(threads "${CMAKE_MATCH_1}")
    endif()
  endmacro()
  threads_reported("")
  set(hardware "${threads}")
  foreach(env 2000 1025 0 -3 abc 2x)
    threads_reported("${env}")
    if(NOT threads STREQUAL hardware)
      list(APPEND failures "DMV_NUM_THREADS=${env} reported threads \
'${threads}', want the hardware count '${hardware}'")
    endif()
  endforeach()
  foreach(env 1 3 1024)
    threads_reported("${env}")
    if(NOT threads STREQUAL env)
      list(APPEND failures
           "DMV_NUM_THREADS=${env} reported threads '${threads}'")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "serve_args.cmake: unknown CHECK '${CHECK}'")
endif()

if(failures)
  list(JOIN failures "\n  " text)
  message(FATAL_ERROR "serve_args (${CHECK}):\n  ${text}")
endif()
