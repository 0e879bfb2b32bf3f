# Runs EXE with the space-separated ARGS and prints "exit=<code>" followed
# by everything the program wrote, so one PASS_REGULAR_EXPRESSION can
# assert both the exit code and the message:
#
#   cmake -DEXE=path/to/bin "-DARGS=--flag value" -P expect_exit.cmake
#
# With "-DABSENT=a;b" it removes those files first and prints "left
# behind: <file>" for each the program wrote, for a FAIL_REGULAR_EXPRESSION.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(ABSENT)
  file(REMOVE ${ABSENT})
endif()
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("exit=${code}\n${out}${err}")
foreach(f IN LISTS ABSENT)
  if(EXISTS "${f}")
    message("left behind: ${f}")
  endif()
endforeach()
