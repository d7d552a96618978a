# Runs one figure program in a fresh directory and compares what it
# prints and writes, byte for byte, with the goldens in dmv_renders/.
#
#   cmake -DEXE=<program> -DNAME=<bench> -DGOLDENS=<repo>/dmv_renders
#         -DWORK=<scratch dir> -DPREFIX=<file prefix>
#         -P tools/figure_golden.cmake
#
# Checks:
#   * the program exits 0;
#   * stdout equals GOLDENS/NAME.stdout and stderr is empty;
#   * the files it writes under dmv_renders/ are exactly the goldens
#     whose names start with PREFIX (none when PREFIX is empty), each
#     equal to its golden. A written file without a golden fails, and
#     so does a golden the program no longer writes.
# tools/regen_figure_goldens.sh rewrites the goldens after an intended
# change.

cmake_minimum_required(VERSION 3.16)

foreach(var EXE NAME GOLDENS WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${EXE}"
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_FILE "${WORK}/stdout"
                ERROR_FILE "${WORK}/stderr"
                RESULT_VARIABLE status)

set(failures "")
macro(expect_same actual golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${actual}" "${golden}"
                  RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
  if(NOT differs EQUAL 0)
    list(APPEND failures "${actual} differs from ${golden}")
  endif()
endmacro()

if(NOT status EQUAL 0)
  list(APPEND failures "${NAME} exited with '${status}'")
endif()
expect_same("${WORK}/stdout" "${GOLDENS}/${NAME}.stdout")
file(SIZE "${WORK}/stderr" stderr_bytes)
if(NOT stderr_bytes EQUAL 0)
  file(READ "${WORK}/stderr" stderr_text)
  list(APPEND failures "stderr is not empty:\n${stderr_text}")
endif()

file(GLOB written RELATIVE "${WORK}/dmv_renders" "${WORK}/dmv_renders/*")
set(expected "")
if(PREFIX)
  file(GLOB expected RELATIVE "${GOLDENS}" "${GOLDENS}/${PREFIX}*")
  list(FILTER expected EXCLUDE REGEX "\\.stdout$")
endif()
foreach(file IN LISTS written)
  if(file IN_LIST expected)
    expect_same("${WORK}/dmv_renders/${file}" "${GOLDENS}/${file}")
  else()
    list(APPEND failures
         "wrote dmv_renders/${file}, which is not a golden of ${NAME}")
  endif()
endforeach()
foreach(file IN LISTS expected)
  if(NOT file IN_LIST written)
    list(APPEND failures "did not write dmv_renders/${file}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "FigureGolden.${NAME}:\n  ${report}\n"
          "If the change is intended, run tools/regen_figure_goldens.sh "
          "and say why in CHANGES.md.")
endif()
