# Pass when a command exits with EXPECT_RC and its stderr contains
# EXPECT_MSG; used for the runs m3bench must refuse.
#
# Usage: cmake -DEXPECT_RC=N -DEXPECT_MSG=TEXT -P expect_exit.cmake -- CMD...
set(cmd "")
set(seen_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_sep)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_sep TRUE)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
    message(FATAL_ERROR "${cmd}: exit ${rc}, expected ${EXPECT_RC}\n${err}")
endif()
string(FIND "${err}" "${EXPECT_MSG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${cmd}: stderr lacks '${EXPECT_MSG}'\n${err}")
endif()
