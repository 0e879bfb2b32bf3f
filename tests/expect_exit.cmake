# Runs EXE with the space-separated ARGS and prints "exit=<code>" followed
# by everything the program wrote, so one PASS_REGULAR_EXPRESSION can
# assert both the exit code and the message:
#
#   cmake -DEXE=path/to/bin "-DARGS=--flag value" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("exit=${code}\n${out}${err}")
