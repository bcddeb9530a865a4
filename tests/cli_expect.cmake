# Runs a command and checks how it ended: exit code EXPECT_CODE and every
# comma-separated substring of EXPECT_OUTPUT somewhere in its combined
# stdout/stderr. With LINE_REGEX set, the output lines it matches (at
# their start) are checked too: exactly LINE_COUNT of them, each
# containing every comma-separated substring of LINE_HAS and none
# containing LINE_LACKS. With CHECK_FILE
# set (an absolute path the command writes), the file is removed before
# the run and must exist after it, containing FILE_HAS and not
# FILE_LACKS.
#
#   cmake -DEXPECT_CODE=1 -DEXPECT_OUTPUT=needle1,needle2 \
#         -P cli_expect.cmake -- <command> [args...]
#   cmake -DEXPECT_CODE=0 "-DLINE_REGEX=  job [0-9]+ " -DLINE_COUNT=2 \
#         -DLINE_HAS=cpu-scalar -DLINE_LACKS=cpu-blocked \
#         -P cli_expect.cmake -- <command> [args...]
#   cmake -DEXPECT_CODE=0 -DCHECK_FILE=/abs/m.prom -DFILE_HAS=cpu-scalar \
#         -DFILE_LACKS=cpu-blocked \
#         -P cli_expect.cmake -- <command> --metrics-out /abs/m.prom
set(cmd "")
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "no command given after --")
endif()

if(DEFINED CHECK_FILE)
  file(REMOVE "${CHECK_FILE}")
endif()
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT "${code}" STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}")
endif()
string(REPLACE "," ";" needles "${EXPECT_OUTPUT}")
foreach(needle IN LISTS needles)
  string(FIND "${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "output lacks \"${needle}\"")
  endif()
endforeach()

if(DEFINED LINE_REGEX)
  string(REGEX MATCHALL "(^|\n)${LINE_REGEX}[^\n]*" lines "${out}")
  list(LENGTH lines count)
  if(NOT count EQUAL LINE_COUNT)
    message(FATAL_ERROR
            "${count} lines match \"${LINE_REGEX}\", expected ${LINE_COUNT}")
  endif()
  string(REPLACE "," ";" line_needles "${LINE_HAS}")
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    foreach(needle IN LISTS line_needles)
      string(FIND "${line}" "${needle}" at)
      if(at EQUAL -1)
        message(FATAL_ERROR "line lacks \"${needle}\": ${line}")
      endif()
    endforeach()
    if(DEFINED LINE_LACKS)
      string(FIND "${line}" "${LINE_LACKS}" at)
      if(NOT at EQUAL -1)
        message(FATAL_ERROR "line has \"${LINE_LACKS}\": ${line}")
      endif()
    endif()
  endforeach()
endif()

if(DEFINED CHECK_FILE)
  if(NOT EXISTS "${CHECK_FILE}")
    message(FATAL_ERROR "${CHECK_FILE} was not written")
  endif()
  file(READ "${CHECK_FILE}" content)
  string(FIND "${content}" "${FILE_HAS}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CHECK_FILE} lacks \"${FILE_HAS}\"")
  endif()
  string(FIND "${content}" "${FILE_LACKS}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${CHECK_FILE} has \"${FILE_LACKS}\"")
  endif()
endif()
