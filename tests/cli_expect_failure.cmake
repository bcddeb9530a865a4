# Runs a command and checks that it fails the way a CLI argument error
# should: exit code EXPECT_CODE and every comma-separated substring of
# EXPECT_OUTPUT somewhere in its combined stdout/stderr.
#
#   cmake -DEXPECT_CODE=1 -DEXPECT_OUTPUT=needle1,needle2 \
#         -P cli_expect_failure.cmake -- <command> [args...]
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
